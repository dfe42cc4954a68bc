"""NumPy-vectorized fast-path simulation kernels.

The interpreted engine (:mod:`repro.sim.engine`) replays a trace one
record at a time through predictor objects. For the paper's table-driven
schemes that loop is pure data movement — table lookups and two-bit
automaton steps — which this module evaluates in batch over the columnar
arrays exported by :meth:`repro.trace.events.Trace.as_arrays`. Results
are **bit-identical** to the interpreted engine: same accuracy, same
per-site counts, same context-switch count (the equivalence-pin suite in
``tests/test_sim_kernels.py`` enforces this for every supported scheme).

How a two-level scheme is vectorized
------------------------------------

1. **Context-switch segmentation.** With the engine's fixed
   absolute-boundary semantics, the records at which a flush fires are
   exactly ``trap | (instret // interval changed)`` — a pure function of
   the trace, computed once as a mask. First-level state never crosses a
   segment boundary.
2. **History patterns in closed form.** A history register's content
   before record ``i`` is the window of the last ``min(d, k)`` outcomes
   (``d`` = records since the register was (re)initialised) extended
   with the fill bit — computable for all records at once with ``k``
   shifted adds. Per-address registers need the records grouped by BHT
   residency first, which one stable sort provides.
3. **Pattern-table evolution as a composed automaton.** Grouping records
   by (table, pattern) key makes each pattern entry's life a sequence of
   outcomes driving one automaton. The per-outcome transition function
   packs into a byte (:func:`repro.core.automata.packed_transition_code`),
   function composition becomes a 256x256 table lookup, and a segmented
   doubling scan yields every entry's state *before* each update. Runs
   of identical outcomes collapse via ``f^m = f^3`` for ``m >= 3``
   (:func:`repro.core.automata.supports_vector_scan`), which both bounds
   the scan depth and allows closed-form scoring of whole runs when no
   per-record output is needed.

Set-associative BHTs (the paper's 4-way tables) are modelled exactly
(:func:`_lru_metadata`): first-invalid-way allocation, true-LRU victim
choice, flush invalidation that keeps stale tags. Records collapse into
per-set events; an epoch with no more branches than ways fills in
closed form, and every contended epoch is replayed at once from LRU
stack distance (Mattson et al., IBM Sys. J. 1970). A recency-window
query — a binary-lifting descent over a range-max table of each
event's next same-tag touch — finds the last touch of the
``assoc``-th most recent distinct tag: an event hits iff its previous
touch is no older, and a miss evicts the way that touch occupied. Ways
then follow by inheritance (a hit keeps its previous touch's way, an
evicting miss its victim's) resolved by pointer jumping, so the pass
emits the same (episode, slot, evict) layout the direct-mapped path
derives in closed form, in log-depth passes over the epoch length.

Hybrid and per-set schemes compose the same machinery: gselect
concatenates address bits into the global-history key, SAg/SAs group
per-set shift registers, and the tournament kernel runs both component
kernels per-record and arbitrates with a chooser-automaton scan over
the disagreement records. Automata beyond 4 states or without
the ``f^4 == f^3`` fixed point, and history registers above
``_MAX_HISTORY_BITS``, have no kernel: ``simulate(..., backend="auto")``
runs them through the interpreted loop (see :func:`kernel_supports`).

The first-level layout memo
---------------------------

A set-associative BHT's residency — which records miss or evict, and
which way each lives in — depends only on the trace, the geometry and
the context-switch model, never on history length or automaton. So
while :func:`repro.sim.parallel.execute_matrix` runs its cells
(case-major, inside :func:`_layout_memo`), a whole-trace call
(``run.final`` and no carry) takes its :class:`_Layout` from
``_LAYOUT_MEMO``. The key is the trace's cached ``TraceArrays`` object
(held, so its identity cannot be reused), ``(num_sets,
associativity)`` and ``(interval, switch_on_traps)``. The memo holds
one trace's layouts at most: a different arrays object replaces them.
Memoized arrays are read-only, so a kernel that writes into a shared
layout fails loudly. Streamed blocks, ideal and direct-mapped layouts
(cheap to rebuild) and calls outside a matrix never touch it.

Carried state
-------------

Each scheme has one kernel, ``kernel(run, carry) -> (outcome, carry)``.
A whole-trace call is one block from the empty carry (``None``); a
streamed call folds the same kernel over the blocks. Every carried
table is a :class:`_Keyed` sparse map holding only touched entries:

* **pattern tables** — automaton state per packed table index (GAg,
  gshare, gselect, GAp, PAg, PAp, SAg, SAs, the tournament choosers);
* **global history** — the register and the flush count at its last
  update (GAg, gshare, gselect, GAp, GSg); GAp also carries its
  pc -> site-id map;
* **BHT slots** — per pc (ideal BHT), set (direct-mapped) or
  set x way (set-associative): occupant pc, flush stamp, recency, plus
  the register (PAg, PSg, PAp), the table id (PAp) or the automaton
  state (BTB). A set's carried ways seed its first LRU epoch in the
  next block when no flush intervened;
* **per-set registers** — register and flush stamp per set (SAg, SAs).

An entry resumes only if its flush stamp matches the flush count at its
next access, so no flush needs eager work. A final block skips building
the carry, so a whole-trace call does no work beyond the scan itself.

Kernels never mutate the predictor: they read its *configuration*
(history length, automaton, BHT geometry, preset/profiled bits) and
assume it is freshly constructed, exactly as the experiment runner
builds predictors.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Optional

import numpy as np

from ..core.automata import (
    IDENTITY_CODE,
    AutomatonSpec,
    packed_transition_code,
    saturating_counter,
    supports_vector_scan,
)
from ..core.history import CacheBHT, IdealBHT
from ..core.perset import SAgPredictor, SAsPredictor
from ..core.static_training import GSgPredictor, PSgPredictor
from ..core.twolevel import (
    GAgPredictor,
    GApPredictor,
    GsharePredictor,
    PAgPredictor,
    PApPredictor,
)
from ..predictors.btb import BTBPredictor
from ..predictors.extensions import GselectPredictor, TournamentPredictor
from ..predictors.static import AlwaysNotTaken, AlwaysTaken, BTFN, ProfileGuided
from ..trace.events import Trace
from ..trace.stream import DEFAULT_BLOCK_SIZE as _DEFAULT_STREAM_BLOCK
from .engine import ContextSwitchConfig
from .results import SimulationResult

__all__ = [
    "CHOOSER_AUTOMATON",
    "KernelUnavailable",
    "automaton_ops",
    "kernel_supports",
    "simulate_vectorized",
    "simulate_vectorized_stream",
]

#: Longest history register the kernels accept. Pattern keys stay well
#: inside int64 and the windowing loop stays short; the paper's longest
#: register is 18 bits.
_MAX_HISTORY_BITS = 24

#: Carried pattern-table keys pack a table, slot-generation or site id
#: above the history bits (``table << k | pattern``). Every new id needs
#: a conditional record of its own, so capping a run's records at
#: ``2**_MAX_TABLE_ID_BITS`` keeps those keys inside int64.
_MAX_TABLE_ID_BITS = 32

#: Per-block record indices are int32 (group starts, episode offsets,
#: the LRU replay's positions and lifting table), so a block must hold
#: fewer than ``2**_MAX_BLOCK_INDEX_BITS`` conditional records.
_MAX_BLOCK_INDEX_BITS = 31


class KernelUnavailable(RuntimeError):
    """No vectorized kernel covers this predictor (or this trace)."""


# ----------------------------------------------------------------------
# Automaton machinery: packed codes, composition LUT, run scans
# ----------------------------------------------------------------------

class _AutomatonOps:
    """Precomputed lookup tables for one automaton.

    Attributes:
        compose: ``compose[a, b]`` = packed code of "apply a, then b".
        apply: ``apply[code, state]`` = the mapped state.
        pred4: per-state predicted direction, padded to 4 states.
        compose_flat: the same table flattened (``a * 256 + b``) for
            single-gather lookups in the scan's hot loop.
        pow_codes: ``pow_codes[outcome, j]`` = code of ``f_outcome^j``
            for j in 0..3 (``f^m == f^3`` for m >= 3 by the
            :func:`supports_vector_scan` gate).
        is_const: whether a code maps every state to one state — a run
            carrying such a code makes everything after it independent
            of earlier history, which caps the scan depth.
        head_wrong: ``head_wrong[outcome, state, c]`` = mispredictions
            across the first ``c`` (<= 3) steps of an ``outcome`` run
            entered in ``state``.
        tail_mis: ``tail_mis[outcome, state]`` = whether the automaton
            mispredicts at the run's fixed point ``f^3(state)``.
        init: the automaton's initial state.
    """

    def __init__(self, spec: AutomatonSpec) -> None:
        codes = np.arange(256, dtype=np.uint16)
        decode = np.stack(
            [(codes >> (2 * s)) & 3 for s in range(4)], axis=1
        ).astype(np.uint8)
        # chained[b, a, s] = decode[b, decode[a, s]] -> code over s.
        chained = decode[:, decode]
        weights = np.array([1, 4, 16, 64], dtype=np.uint16)
        composed = (chained.astype(np.uint16) * weights).sum(axis=2)
        self.compose = np.ascontiguousarray(composed.T.astype(np.uint8))
        self.compose_flat = self.compose.ravel()
        self.apply = decode
        self.pred4 = np.array(
            [
                spec.predictions[s] if s < spec.num_states else False
                for s in range(4)
            ],
            dtype=np.bool_,
        )
        self.pow_codes = np.empty((2, 4), dtype=np.uint8)
        for outcome in (0, 1):
            f1 = packed_transition_code(spec, bool(outcome))
            self.pow_codes[outcome, 0] = IDENTITY_CODE
            self.pow_codes[outcome, 1] = f1
            self.pow_codes[outcome, 2] = self.compose[f1, f1]
            self.pow_codes[outcome, 3] = self.compose[self.pow_codes[outcome, 2], f1]
        self.is_const = (decode == decode[:, :1]).all(axis=1)
        self.head_wrong = np.zeros((2, 4, 4), dtype=np.int64)
        self.tail_mis = np.zeros((2, 4), dtype=np.int64)
        for outcome in (0, 1):
            for state in range(4):
                current = state
                for j in range(3):
                    self.head_wrong[outcome, state, j + 1] = (
                        self.head_wrong[outcome, state, j]
                        + (self.pred4[current] != bool(outcome))
                    )
                    current = self.apply[self.pow_codes[outcome, 1], current]
                fixed = self.apply[self.pow_codes[outcome, 3], state]
                self.tail_mis[outcome, state] = self.pred4[fixed] != bool(outcome)
        self.init = spec.initial_state


_OPS_CACHE: Dict[tuple, _AutomatonOps] = {}


def _ops_for(spec: AutomatonSpec) -> _AutomatonOps:
    key = (spec.transitions, spec.predictions, spec.initial_state)
    ops = _OPS_CACHE.get(key)
    if ops is None:
        ops = _OPS_CACHE[key] = _AutomatonOps(spec)
    return ops


def automaton_ops(spec: AutomatonSpec) -> _AutomatonOps:
    """The kernel table bundle (:class:`_AutomatonOps`) for ``spec``.

    This is the public verification hook used by the
    ``repro.check.kernels`` encoding prover: it returns exactly the
    packed-code / composition-LUT / run-scoring tables the vectorized
    scans gather from, so external checks prove the objects the kernels
    actually run on, not a reconstruction. The bundle is cached and
    shared with the simulation hot path — callers that want to mutate
    tables (mutation tests) must ``copy.deepcopy`` it first.
    """
    return _ops_for(spec)


class _Runs:
    """Maximal same-outcome runs within pattern groups, plus the
    automaton state entering each run (the output of the scan)."""

    __slots__ = ("first", "length", "lcap", "out", "state0", "starts")

    def __init__(self, first, length, lcap, out, state0, starts) -> None:
        self.first = first
        self.length = length
        self.lcap = lcap
        self.out = out
        self.state0 = state0
        self.starts = starts


def _find_runs(out_u8: np.ndarray, grp_new: np.ndarray, ops: _AutomatonOps,
               group_init: Optional[np.ndarray] = None) -> _Runs:
    """Collapse group-sorted outcomes into runs and scan their states.

    ``out_u8`` must be ordered group-major with time order inside each
    group; ``grp_new`` marks each group's first element. Every group's
    automaton starts from ``ops.init`` — unless ``group_init`` (one
    uint8 state per group, in group order) supplies carried states,
    which is how a streamed block resumes pattern entries where the
    previous block left them.
    """
    n = out_u8.shape[0]
    starts = grp_new.copy()
    starts[1:] |= out_u8[1:] != out_u8[:-1]
    first = np.flatnonzero(starts)
    nruns = first.shape[0]
    length = np.empty(nruns, dtype=np.int64)
    if nruns > 1:
        length[:-1] = np.diff(first)
    length[-1] = n - first[-1]
    out = out_u8[first]
    lcap = np.minimum(length, 3)
    code = ops.pow_codes[out, lcap]

    grp_first = grp_new[first]
    prev_code = np.empty(nruns, dtype=np.uint8)
    prev_code[0] = IDENTITY_CODE
    prev_code[1:] = code[:-1]
    # A constant predecessor code pins the state regardless of anything
    # earlier: start a fresh scan segment there with a known init.
    absorbed = ~grp_first & ops.is_const[prev_code]
    absorbed[0] = False
    seg_new = grp_first | absorbed
    seg_new[0] = True
    seg_start = _start_indices(seg_new)
    idx_in_seg = np.arange(nruns, dtype=np.int32) - seg_start
    if group_init is None:
        init_vals = np.full(nruns, ops.init, dtype=np.uint8)
    else:
        init_vals = group_init[np.cumsum(grp_first) - 1]
    init_run = np.where(absorbed, prev_code & 3, init_vals).astype(np.uint8)[seg_start]

    # Exclusive segmented composition scan (Hillis-Steele doubling):
    # after the loop, H[i] maps a segment's init state to the state
    # entering run i. Only positions >= step into their segment change
    # in an iteration, so each pass touches the (rapidly shrinking)
    # active set instead of the whole array; reading ``H[active-step]``
    # before any write keeps the gather on pre-iteration values, and
    # ``idx_in_seg >= step`` guarantees ``active - step`` stays inside
    # the same segment.
    H = np.empty(nruns, dtype=np.uint8)
    H[0] = IDENTITY_CODE
    H[1:] = code[:-1]
    H[seg_new] = IDENTITY_CODE
    compose_flat = ops.compose_flat
    step = 1
    while True:
        active = np.flatnonzero(idx_in_seg >= step)
        if active.size == 0:
            break
        prior = H[active - step].astype(np.uint16)
        H[active] = compose_flat[(prior << 8) | H[active]]
        step <<= 1
    state0 = ops.apply[H, init_run]
    return _Runs(first, length, lcap, out, state0, starts)


def _runs_wrong_total(runs: _Runs, ops: _AutomatonOps) -> int:
    """Total mispredictions, scored per run in closed form."""
    cell = (runs.out.astype(np.int64) * 4 + runs.state0) * 4
    head = ops.head_wrong.ravel()[cell + runs.lcap]
    tail = (runs.length - runs.lcap) * ops.tail_mis.ravel()[cell >> 2]
    return int(head.sum() + tail.sum())


def _expand_run_preds(n: int, runs: _Runs, ops: _AutomatonOps) -> np.ndarray:
    """Per-record predictions (group-sorted order) from run states."""
    nruns = runs.first.shape[0]
    preds = np.empty((nruns, 4), dtype=np.bool_)
    for j in range(4):
        preds[:, j] = ops.pred4[ops.apply[ops.pow_codes[runs.out, j], runs.state0]]
    run_id = np.cumsum(runs.starts) - 1
    offset = np.minimum(np.arange(n) - runs.first[run_id], 3)
    return preds[run_id, offset]


# ----------------------------------------------------------------------
# Sorting / grouping / history-window helpers
# ----------------------------------------------------------------------

def _stable_argsort(keys: np.ndarray) -> np.ndarray:
    """Stable argsort specialised for small non-negative keys.

    Radix sort on uint16 keys is ~8x faster than comparison sort on
    int64, and two chained stable uint16 passes (LSD radix) cover the
    32-bit range; wider keys fall back to the generic stable sort.
    """
    if keys.shape[0] == 0:
        return np.empty(0, dtype=np.int64)
    top = int(keys.max())
    if top < (1 << 16):
        return np.argsort(keys.astype(np.uint16), kind="stable")
    if top < (1 << 32):
        wide = keys.astype(np.uint32)
        low = (wide & np.uint32(0xFFFF)).astype(np.uint16)
        high = (wide >> np.uint32(16)).astype(np.uint16)
        by_low = np.argsort(low, kind="stable")
        by_high = np.argsort(high[by_low], kind="stable")
        return by_low[by_high]
    return np.argsort(keys, kind="stable")


def _change_marks(values: np.ndarray) -> np.ndarray:
    """True at index 0 and wherever a value differs from the one before."""
    marks = np.empty(values.shape[0], dtype=np.bool_)
    marks[0] = True
    marks[1:] = values[1:] != values[:-1]
    return marks


def _lasts(heads: np.ndarray, n: int) -> np.ndarray:
    """The last index of each group, given every group's first."""
    lasts = np.empty(heads.shape[0], dtype=np.int64)
    lasts[:-1] = heads[1:] - 1
    lasts[-1] = n - 1
    return lasts


def _group_sort(keys: np.ndarray):
    """``(order, grp_new, key_s)``: stable sort by key, group-start
    marks, and the sorted keys."""
    order = _stable_argsort(keys)
    key_s = keys[order]
    return order, _change_marks(key_s), key_s


def _start_indices(new_mark: np.ndarray) -> np.ndarray:
    """For each position, the index of its group's first element.

    int32 keeps this (and its downstream arithmetic) at half the memory
    traffic; :func:`_fold` refuses blocks of ``2**_MAX_BLOCK_INDEX_BITS``
    or more records.
    """
    n = new_mark.shape[0]
    return np.maximum.accumulate(
        np.where(new_mark, np.arange(n, dtype=np.int32), np.int32(0))
    )


def _outcome_window(out_u8: np.ndarray, k: int) -> np.ndarray:
    """``W[i]`` = the previous ``k`` outcomes before position ``i``,
    newest in bit 0 (group boundaries handled by the callers' masks)."""
    n = out_u8.shape[0]
    window = np.zeros(n, dtype=np.int32)
    lifted = out_u8.astype(np.int32)
    for back in range(1, k + 1):
        window[back:] += lifted[:-back] << np.int32(back - 1)
    return window


def _fill_extended(window: np.ndarray, since: np.ndarray, fill: np.ndarray, k: int) -> np.ndarray:
    """History-register contents: ``min(since, k)`` window bits with the
    ``fill`` bit extended through the remaining upper positions."""
    mask = np.int32((1 << k) - 1)
    depth = np.minimum(since, np.int32(k))
    low_mask = (np.int32(1) << depth) - np.int32(1)
    return (window & low_mask) | (fill * (mask ^ low_mask))


# ----------------------------------------------------------------------
# The run container and the carried-state map
# ----------------------------------------------------------------------

class _Run:
    """Prepared inputs of one kernel pass over one block of records.

    A whole-trace call is a single ``final`` block: its kernels skip
    building the state they would carry out. A streamed call threads
    ``prev_epoch`` (the context-switch epoch of the previous block's last
    record, so a flush boundary falling exactly between two blocks still
    fires), ``fires_base`` (the global flush count entering the block, so
    ``seg_c`` values — and the flush stamps derived from them — stay
    comparable across blocks) and ``t0`` (the global index of the block's
    first conditional record, which orders LRU recency across blocks).
    ``cs`` is the context-switch model as ``(interval, switch_on_traps)``,
    or None.
    """

    __slots__ = ("arrays", "n_c", "out_bool", "out_u8", "seg_c", "switches",
                 "aggregate", "warmup", "track_per_site", "_pc_c",
                 "fires_end", "last_epoch", "t0", "final", "cs")

    def __init__(self, trace: Trace, context_switches: Optional[ContextSwitchConfig],
                 track_per_site: bool, warmup_branches: int, *,
                 prev_epoch: Optional[int] = None, fires_base: int = 0,
                 t0: int = 0, final: bool = True) -> None:
        arrays = trace.as_arrays()
        self.arrays = arrays
        cond = arrays.cond_mask
        self.out_bool = arrays.taken[cond]
        self.out_u8 = self.out_bool.view(np.uint8)
        self.n_c = int(self.out_bool.shape[0])
        self.warmup = max(int(warmup_branches), 0)
        self.track_per_site = bool(track_per_site)
        self.aggregate = self.warmup == 0 and not self.track_per_site
        self._pc_c = None
        self.t0 = int(t0)
        self.final = bool(final)
        self.cs = None if context_switches is None else (
            context_switches.interval, context_switches.switch_on_traps)
        fires_base = int(fires_base)
        if context_switches is None or len(arrays) == 0:
            self.switches = 0
            self.seg_c = np.full(self.n_c, fires_base, dtype=np.int64)
            self.fires_end = fires_base
            self.last_epoch = 0 if prev_epoch is None else int(prev_epoch)
            return
        instret = arrays.instret
        if np.any(instret[1:] < instret[:-1]):
            raise KernelUnavailable(
                "instret decreases within the trace; the vectorized "
                "context-switch model requires a non-decreasing clock"
            )
        boundary = np.empty(len(arrays), dtype=np.bool_)
        epoch = instret // context_switches.interval
        boundary[0] = epoch[0] > (0 if prev_epoch is None else prev_epoch)
        boundary[1:] = epoch[1:] > epoch[:-1]
        fires = boundary | arrays.trap if context_switches.switch_on_traps else boundary
        self.switches = int(np.count_nonzero(fires))
        fires_cum = np.cumsum(fires)
        self.seg_c = fires_base + fires_cum[cond]
        self.fires_end = fires_base + int(fires_cum[-1])
        self.last_epoch = int(epoch[-1])

    @property
    def pc_c(self) -> np.ndarray:
        if self._pc_c is None:
            self._pc_c = self.arrays.pc[self.arrays.cond_mask]
        return self._pc_c


class _Keyed:
    """A sparse map from sorted int64 keys to parallel value columns.

    The one container for carried state: pattern-table entries (packed
    table index -> automaton state), BHT slots and per-set registers
    (slot -> flush stamp, register, ...) and GAp's site ids. It holds
    only entries some block touched, and blocks read and write whole
    sorted key arrays at once.
    """

    __slots__ = ("keys", "cols")

    def __init__(self, keys: np.ndarray, **cols: np.ndarray) -> None:
        self.keys = keys
        self.cols = cols

    def get(self, query: np.ndarray, *names: str, default=-1):
        """Each named column at each query key, ``default`` where the key
        is absent (one array for one name, else a list)."""
        if self.keys.shape[0]:
            pos = np.minimum(np.searchsorted(self.keys, query), self.keys.shape[0] - 1)
            found = self.keys[pos] == query
            values = [np.where(found, self.cols[name][pos], default) for name in names]
        else:
            values = [np.full(np.shape(query), default) for _ in names]
        return values[0] if len(names) == 1 else values

    def select(self, keep: np.ndarray) -> "_Keyed":
        return _Keyed(self.keys[keep], **{name: col[keep] for name, col in self.cols.items()})


def _upsert(table: Optional[_Keyed], keys: np.ndarray, /, **cols: np.ndarray) -> _Keyed:
    """``table`` with sorted unique ``keys`` overwritten or inserted."""
    keys = keys.astype(np.int64, copy=False)
    if table is None or table.keys.shape[0] == 0:
        return _Keyed(keys, **cols)
    pos = np.searchsorted(table.keys, keys)
    at = np.minimum(pos, table.keys.shape[0] - 1)
    found = table.keys[at] == keys
    for name, values in cols.items():
        table.cols[name][at[found]] = values[found]
    if found.all():
        return table
    new = ~found
    where = pos[new]
    return _Keyed(
        np.insert(table.keys, where, keys[new]),
        **{name: np.insert(table.cols[name], where, values[new])
           for name, values in cols.items()},
    )


def _stretch(since: np.ndarray, heads: np.ndarray, k: int) -> np.ndarray:
    """How many records from each head, at most ``k``, continue its
    register without a restart (``since`` counts records from the last
    restart)."""
    n = since.shape[0]
    j = np.arange(k, dtype=np.int64)
    idx = heads[:, None] + j
    ok = (idx < n) & (since[np.minimum(idx, n - 1)] == j)
    return np.cumprod(ok, axis=1).sum(axis=1)


def _splice(patterns: np.ndarray, window: np.ndarray, heads: np.ndarray,
            spans: np.ndarray, regs: np.ndarray, k: int) -> None:
    """Resume carried history registers in place: the ``j``-th record
    from ``heads[i]`` (``j < spans[i]``) sees ``regs[i]`` shifted up by
    ``j`` above its ``j`` block-local window bits. Deeper records hold
    ``k`` window bits either way."""
    total = int(spans.sum())
    if total == 0:
        return
    offsets = np.repeat(np.cumsum(spans) - spans, spans)
    j = np.arange(total, dtype=np.int64) - offsets
    idx = np.repeat(heads, spans) + j
    low = (np.int64(1) << j) - 1
    carried = np.repeat(regs.astype(np.int64), spans) << j
    patterns[idx] = (carried | (window[idx] & low)) & ((1 << k) - 1)


def _scan(out_s: np.ndarray, grp_new: np.ndarray, order: np.ndarray,
          ops: _AutomatonOps, init: Optional[np.ndarray], aggregate: bool):
    """``(outcome, runs)``: scan group-sorted outcomes, then score either
    in closed form (a correct count) or per record (predictions in the
    trace order ``order`` maps back to)."""
    runs = _find_runs(out_s, grp_new, ops, init)
    n = out_s.shape[0]
    if aggregate:
        return n - _runs_wrong_total(runs, ops), runs
    pred = np.empty(n, dtype=np.bool_)
    pred[order] = _expand_run_preds(n, runs, ops)
    return pred, runs


def _group_final_states(runs: _Runs, grp_new: np.ndarray, ops: _AutomatonOps) -> np.ndarray:
    """Each group's automaton state after its last update, in group
    order (one value per True in ``grp_new``)."""
    grp_first_runs = grp_new[runs.first]
    nruns = runs.first.shape[0]
    last = np.empty(nruns, dtype=np.bool_)
    last[:-1] = grp_first_runs[1:]
    last[-1] = True
    idx = np.flatnonzero(last)
    codes = ops.pow_codes[runs.out[idx], runs.lcap[idx]]
    return ops.apply[codes, runs.state0[idx]]


def _scan_store(run: _Run, ops: _AutomatonOps, key_s: np.ndarray, out_s: np.ndarray,
                grp_new: np.ndarray, order: np.ndarray, store: Optional[_Keyed],
                aggregate: Optional[bool] = None):
    """The pattern-table pass: each (sorted) key group starts from its
    carried entry state, and — unless the block is final — every touched
    entry's final state is written back into the store."""
    if aggregate is None:
        aggregate = run.aggregate
    init = None
    if store is not None or not run.final:
        group_keys = key_s[np.flatnonzero(grp_new)]
        if store is not None:
            init = store.get(group_keys, "state", default=ops.init)
    result, runs = _scan(out_s, grp_new, order, ops, init, aggregate)
    if run.final:
        return result, None
    return result, _upsert(store, group_keys, state=_group_final_states(runs, grp_new, ops))


def _scan_keys(run: _Run, ops: _AutomatonOps, keys: np.ndarray, store: Optional[_Keyed],
               out: Optional[np.ndarray] = None, base: Optional[np.ndarray] = None):
    """Group records by pattern-table index and scan them. ``keys`` and
    ``out`` may be in a pre-sorted ``base`` order whose stable
    refinement keeps time order inside every group."""
    order, grp_new, key_s = _group_sort(keys)
    out_s = (run.out_u8 if out is None else out)[order]
    if base is not None:
        order = base[order]
    return _scan_store(run, ops, key_s, out_s, grp_new, order, store)


# ----------------------------------------------------------------------
# Global-history schemes: GAg, GSg, gshare, GAp, gselect
# ----------------------------------------------------------------------

def _global_history(run: _Run, k: int, reset: int, carry: Optional[tuple]):
    """``(ghr, carry)``: the GHR before each conditional record, and the
    ``(stamp, register)`` after the block.

    The register restarts at ``reset`` after every flush. The carried
    register resumes at the block's first record unless a flush fired
    since the previous block's last conditional record, whose flush
    count is the stamp.
    """
    seg = run.seg_c
    new_seg = _change_marks(seg)
    since = np.arange(run.n_c, dtype=np.int32) - _start_indices(new_seg)
    window = _outcome_window(run.out_u8, k)
    ghr = _fill_extended(window, since, np.int32(reset & 1), k)
    if carry is not None and carry[0] == int(seg[0]) and carry[1] != reset:
        heads = np.zeros(1, dtype=np.int64)
        _splice(ghr, window, heads, _stretch(since, heads, k), np.array([carry[1]]), k)
    if run.final:
        return ghr, None
    register = ((int(ghr[-1]) << 1) | int(run.out_u8[-1])) & ((1 << k) - 1)
    return ghr, (int(seg[-1]), register)


def _kernel_global(ops: _AutomatonOps, k: int, reset: int, index):
    """GAg, gshare and gselect: one pattern table indexed by
    ``index(run, ghr)``; carries the GHR and the table."""

    def kernel(run: _Run, carry):
        hist, store = carry or (None, None)
        ghr, hist = _global_history(run, k, reset, hist)
        result, store = _scan_keys(run, ops, index(run, ghr), store)
        return result, (hist, store)

    return kernel


def _kernel_gag(predictor: GAgPredictor):
    k = predictor.history_bits
    return _kernel_global(_ops_for(predictor.automaton), k, (1 << k) - 1, lambda run, ghr: ghr)


def _kernel_gshare(predictor: GsharePredictor):
    k = predictor.history_bits
    mask = (1 << k) - 1
    return _kernel_global(_ops_for(predictor.automaton), k, 0,
                          lambda run, ghr: (ghr ^ run.pc_c) & mask)


def _kernel_gselect(predictor: GselectPredictor):
    k = predictor.history_bits
    addr_mask = (1 << predictor.address_bits) - 1
    return _kernel_global(
        _ops_for(predictor.pht.automaton), k, (1 << k) - 1,
        lambda run, ghr: ((run.pc_c & addr_mask) << k) | ghr,
    )


def _site_ids(run: _Run, known: Optional[_Keyed]):
    """``(ids, known)``: a stable id per conditional record's pc. Ids
    are dense in first-seen block order, so they survive across blocks
    in the carried pc -> id map."""
    sites, ids = run.arrays.conditional_site_ids()
    if known is None:
        fresh = None if run.final else _Keyed(sites.astype(np.int64), id=np.arange(sites.shape[0]))
        return ids, fresh
    stable = known.get(sites, "id")
    new = stable < 0
    stable[new] = known.keys.shape[0] + np.arange(int(np.count_nonzero(new)))
    if not run.final:
        known = _upsert(known, sites[new], id=stable[new])
    return stable[ids], known


def _kernel_gap(predictor: GApPredictor):
    ops = _ops_for(predictor.automaton)
    k = predictor.history_bits
    reset = (1 << k) - 1

    def kernel(run: _Run, carry):
        hist, known, store = carry or (None, None, None)
        ghr, hist = _global_history(run, k, reset, hist)
        ids, known = _site_ids(run, known)
        result, store = _scan_keys(run, ops, (ids << k) | ghr, store)
        return result, (hist, known, store)

    return kernel


def _kernel_gsg(predictor: GSgPredictor):
    bits = np.asarray(predictor.table.bits_snapshot(), dtype=np.bool_)
    k = predictor.history_bits

    def kernel(run: _Run, carry):
        ghr, carry = _global_history(run, k, (1 << k) - 1, carry)
        return bits[ghr], carry

    return kernel


# ----------------------------------------------------------------------
# Per-address first level: PAg, PSg, PAp, BTB
# ----------------------------------------------------------------------

class _Layout:
    """Conditional records regrouped by BHT slot.

    ``order`` stable-sorts conditional records into (slot, time) order.
    A slot is the pc for the ideal BHT, the set for a direct-mapped one,
    and set x associativity + way for a set-associative one. ``ep_new``
    marks BHT misses: each opens an *episode*, one entry's tenure, whose
    register starts fresh. ``evict`` marks misses that displace a
    still-valid occupant. ``blk_new`` marks each slot's first record in
    the block; ``cont`` says, per such head, whether it hits an entry
    carried in from the previous block. ``m`` counts records since the
    last episode start or head.

    ``heads``, ``lasts`` (each slot's first and last record), ``hkey``
    (each head's slot) and ``cont`` are None when the block neither
    resumes nor carries out slots.
    """

    __slots__ = ("order", "out_s", "ep_new", "ep_start", "m", "blk_new",
                 "evict", "heads", "lasts", "hkey", "cont", "ideal")

    def __init__(self, order, out_s, ep_new, blk_new, evict, heads, hkey, cont,
                 ideal) -> None:
        n = out_s.shape[0]
        self.order = order
        self.out_s = out_s
        self.ep_new = ep_new
        self.blk_new = blk_new
        self.evict = evict
        self.heads = heads
        self.lasts = None if heads is None else _lasts(heads, n)
        self.hkey = hkey
        self.cont = cont
        self.ideal = ideal
        self.ep_start = _start_indices(ep_new if heads is None else ep_new | blk_new)
        self.m = np.arange(n, dtype=np.int32) - self.ep_start


def _pa_layout(run: _Run, bht, carry: Optional[_Keyed]) -> _Layout:
    """The slot layout, resuming ``carry``'s entries (keyed by slot,
    with the occupant pc and the flush stamp of its last access)."""
    if isinstance(bht, CacheBHT) and bht.associativity > 1:
        if carry is None and run.final and _LAYOUT_MEMO.depth:
            return _LAYOUT_MEMO.layout(run, bht)
        return _assoc_layout(run, bht, carry)
    ideal = isinstance(bht, IdealBHT)
    if ideal:
        _sites, keys = run.arrays.conditional_site_ids()
    else:
        keys = run.pc_c % bht.num_sets
    order = _stable_argsort(keys)
    key_s = keys[order]
    out_s = run.out_u8[order]
    blk_new = _change_marks(key_s)
    ep_new = _change_marks(run.seg_c[order])
    ep_new |= blk_new
    if ideal:
        evict = np.zeros(run.n_c, dtype=np.bool_)
    else:
        pc_chg = _change_marks(run.pc_c[order])
        evict = pc_chg & ~ep_new
        ep_new |= pc_chg
    heads = hkey = cont = None
    if carry is not None or not run.final:
        heads = np.flatnonzero(blk_new)
        head_pc = run.pc_c[order[heads]]
        hkey = head_pc if ideal else key_s[heads]
    if carry is not None:
        stamp, pc = carry.get(hkey, "stamp", "pc")
        valid = stamp == run.seg_c[order[heads]]
        if ideal:
            cont = valid
        else:
            same = pc == head_pc
            cont = valid & same
            evict[heads] = valid & ~same
        ep_new[heads] = ~cont
    return _Layout(order, out_s, ep_new, blk_new, evict, heads, hkey, cont, ideal)


def _lru_metadata(run: _Run, bht: CacheBHT, carry: Optional[_Keyed]):
    """Replay every set's LRU way array over the block's conditional
    records in (set, time) order.

    Returns ``order1`` (that order) and per-record arrays in it: ``miss``
    (the access allocated its entry), ``evict`` (the allocation displaced
    a valid occupant), and ``slot`` (set x associativity + the way the
    record's entry lives in). The model mirrors :meth:`repro.core.history.CacheBHT.access`
    exactly: hits refresh recency, misses claim the first invalid way by
    index (else the true-LRU victim), and a flush invalidates every way
    while keeping its tag and recency — only ``access`` ticks the clock,
    so recency order is conditional-record order.

    Consecutive records of one set with the same tag and segment
    collapse into a single *event* (everything after the first is a
    guaranteed hit on the way just touched, and only the last touch's
    recency survives). Events partition into *epochs* — one set's
    tenure between flushes — and epochs are independent: a flush
    invalidates every way, allocations claim invalid ways by index
    before consulting recency, and hits require validity, so neither
    the retained tags nor the pre-flush recency can ever influence a
    later epoch. The one exception is a set's first epoch in a streamed
    block: when no flush fired since the previous block, it starts from
    the carried way arrays (tag, validity, recency) instead of empty.

    Within an epoch whose carried valid ways plus new distinct branches
    fit in the set nothing is ever displaced: carried tags hit, every
    new branch's first touch allocates the lowest invalid way left (fill
    order), every later touch hits, and ``evict`` never fires. That is
    the common case for the paper's geometries (hundreds of sets, a
    handful of resident branches each) and is computed with pure array
    passes below. Epochs with more branches than ways — where true LRU
    replacement decides — are replayed together by :func:`_lru_replay`
    from LRU stack distance (Mattson et al., IBM Sys. J. 1970): a
    recency-window query per event finds the last touch of the
    ``assoc``-th most recent distinct tag, which decides hit or miss and
    names the victim, and every event inherits its way from its previous
    touch, its victim, or its fill. A set's carried ways enter the
    replay as its first epoch's oldest events.
    """
    n = run.n_c
    assoc = bht.associativity
    sets = run.pc_c % bht.num_sets
    order1 = _stable_argsort(sets)
    set_s = sets[order1]
    tag_s = (run.pc_c // bht.num_sets)[order1]
    seg_s = run.seg_c[order1]

    set_chg = _change_marks(set_s)
    ev_new = set_chg.copy()
    ev_new[1:] |= (tag_s[1:] != tag_s[:-1]) | (seg_s[1:] != seg_s[:-1])
    ev_first = np.flatnonzero(ev_new)
    n_ev = ev_first.shape[0]
    ev_tag = tag_s[ev_first]
    ev_seg = seg_s[ev_first]

    # Epoch boundaries: a new set, or a segment change within the set.
    ep_new = set_chg[ev_first].copy()
    ep_new[0] = True
    ep_new[1:] |= ev_seg[1:] != ev_seg[:-1]
    ep_id = np.cumsum(ep_new, dtype=np.int64) - 1
    n_ep = int(ep_id[-1]) + 1

    # First touch of each (epoch, tag) group: a stable sort by tag then
    # by (already monotone) epoch puts each group's events in time
    # order with the first touch leading. Epochs never span sets, so
    # tag alone identifies the branch within a group.
    by_tag = _stable_argsort(ev_tag)
    gorder = by_tag[_stable_argsort(ep_id[by_tag])]
    g_ep = ep_id[gorder]
    g_tag = ev_tag[gorder]
    gnew = np.empty(n_ev, dtype=np.bool_)
    gnew[0] = True
    gnew[1:] = (g_ep[1:] != g_ep[:-1]) | (g_tag[1:] != g_tag[:-1])
    is_first = np.zeros(n_ev, dtype=np.bool_)
    first_idx = gorder[gnew]
    is_first[first_idx] = True

    ev_miss = is_first.copy()
    ev_evict = np.zeros(n_ev, dtype=np.bool_)
    ep_start_ev = _start_indices(ep_new)
    seeds = None
    if carry is None:
        # Fill order: the d-th distinct branch of an epoch lands in way d.
        touched = np.cumsum(is_first)  # inclusive count of first touches
        first_way = (touched - touched[ep_start_ev])[first_idx]
        distinct = np.bincount(ep_id[is_first], minlength=n_ep)
    else:
        ep_first = np.flatnonzero(ep_new)
        slots = (set_s[ev_first[ep_first]] * assoc)[:, None] + np.arange(assoc)
        c_stamp, c_pc, c_rec = carry.get(slots, "stamp", "pc", "rec")
        c_valid = c_stamp == ev_seg[ep_first][:, None]
        c_tag = c_pc // bht.num_sets
        f_ep = ep_id[first_idx]
        hit_ways = c_valid[f_ep] & (c_tag[f_ep] == ev_tag[first_idx][:, None])
        carried_hit = hit_ways.any(axis=1)
        hit_way = np.argmax(hit_ways, axis=1)
        ev_miss[first_idx[carried_hit]] = False
        # New branches fill the lowest invalid ways in first-touch order.
        fresh = np.cumsum(ev_miss) - ev_miss
        rank = (fresh - fresh[ep_start_ev])[first_idx]
        free = np.argsort(c_valid, axis=1, kind="stable")
        first_way = np.where(carried_hit, hit_way, free[f_ep, np.minimum(rank, assoc - 1)])
        # Each epoch's ways, valid ones first by recency, seed the replay.
        by_rec = np.argsort(np.where(c_valid, c_rec, np.iinfo(np.int64).max), axis=1)
        seeds = (c_valid.sum(axis=1), by_rec, first_idx[carried_hit], hit_way[carried_hit])
        distinct = np.bincount(ep_id[ev_miss], minlength=n_ep) + seeds[0]
    grp_id_g = np.cumsum(gnew, dtype=np.int64) - 1
    grp_id = np.empty(n_ev, dtype=np.int64)
    grp_id[gorder] = grp_id_g
    grp_way = np.empty(int(grp_id_g[-1]) + 1, dtype=np.int64)
    grp_way[grp_id[first_idx]] = first_way
    ev_way = grp_way[grp_id]

    contended = distinct > assoc
    if np.any(contended):
        _lru_replay(assoc, ep_new, ep_id, contended, gorder, gnew, seeds,
                    ev_miss, ev_evict, ev_way)

    # Expand events back to records: miss/evict fire only on an event's
    # first record; every record inherits its event's way.
    miss_r = np.zeros(n, dtype=np.bool_)
    evict_r = np.zeros(n, dtype=np.bool_)
    miss_r[ev_first] = ev_miss
    evict_r[ev_first] = ev_evict
    slot_r = set_s * assoc + ev_way[np.cumsum(ev_new) - 1]
    return order1, miss_r, evict_r, slot_r


def _lru_replay(assoc: int, ep_new, ep_id, contended, gorder, gnew, seeds,
                ev_miss, ev_evict, ev_way) -> None:
    """Overwrite ``ev_miss``, ``ev_evict`` and ``ev_way`` on the events
    of the ``contended`` epochs with their exact true-LRU replay.

    ``seeds`` is None without a carry, else ``(n_valid, by_rec, hit_ev,
    hit_way)``: per epoch, its count of carried valid ways and its ways
    with the valid ones leading, oldest recency first; and the first
    touches that hit a carried way, with that way.

    Each contended epoch is laid out on one position axis as a sentinel,
    then its carried valid ways as pseudo-events (oldest recency first),
    then its events. An epoch's set always holds the ``min(assoc, D)``
    most recently touched of the ``D`` distinct tags seen so far — the
    top of the LRU stack (Mattson et al., "Evaluation techniques for
    storage hierarchies", IBM Sys. J. 1970) — so event
    ``e`` hits iff its tag's previous touch ``prev(e)`` is no older than
    ``L(e)``, the last touch of the ``assoc``-th most recent distinct tag
    before ``e``. ``L(e)`` is the largest ``j`` with ``next(j) >= e``
    below ``L`` for one fewer tag, starting from ``e - 1``; each step is
    one binary-lifting descent over a range-max table of ``next``, and
    the sentinel (``next`` = infinity) both bounds the descent to the
    epoch and stands for "the set is not full yet". A miss with ``L(e)``
    past the sentinel evicts: its victim is the way ``L(e)`` touched.
    A hit keeps ``prev(e)``'s way, and a fill miss already has the way
    the fill closed form gave it, as does every carried way. Pointer
    jumping then resolves every event's way to its fill or carried root.

    Loops run over lifting levels, associativity and pointer-jumping
    depth only, never over an epoch's events.
    """
    ep_first = np.flatnonzero(ep_new)
    ep_len = np.diff(ep_first, append=ep_new.shape[0])
    c_first = ep_first[contended]
    c_len = ep_len[contended]
    n_seed = np.zeros_like(c_len) if seeds is None else seeds[0][contended]
    span = 1 + n_seed + c_len
    base = np.cumsum(span) - span
    total = int(base[-1] + span[-1])
    # int32 positions halve the lifting table; blocks stay below 2**31
    # records, but pseudo-events and sentinels can push a pathological
    # block past it.
    idx = np.int32 if total < 1 << 31 else np.int64
    ep_shift = np.zeros(ep_len.shape[0], dtype=np.int64)
    ep_shift[contended] = base + 1 + n_seed - c_first
    sel = np.flatnonzero(contended[ep_id])
    e = (sel + ep_shift[ep_id[sel]]).astype(idx)
    e_base = np.repeat(base, c_len).astype(idx)

    # Same-tag neighbours: consecutive members of one (epoch, tag) group.
    prv = np.full(total, -1, dtype=idx)
    nxt = np.full(total, total, dtype=idx)
    link = ~gnew[1:] & contended[ep_id[gorder[1:]]]
    a = gorder[:-1][link]
    b = gorder[1:][link]
    a += ep_shift[ep_id[a]]
    b += ep_shift[ep_id[b]]
    prv[b] = a
    nxt[a] = b
    root_way = np.empty(total, dtype=np.int64)
    if seeds is not None:
        _n, by_rec, hit_ev, hit_way = seeds
        by_rec = by_rec[contended]
        is_seed = np.arange(assoc) < n_seed[:, None]
        root_way[((base + 1)[:, None] + np.arange(assoc))[is_seed]] = by_rec[is_seed]
        # A first touch that hits a carried way follows its pseudo-event.
        keep = contended[ep_id[hit_ev]]
        hit_ev = hit_ev[keep]
        c_ep = (np.cumsum(contended) - 1)[ep_id[hit_ev]]
        recency = np.argsort(by_rec, axis=1)  # each way's pseudo-event rank
        p = base[c_ep] + 1 + recency[c_ep, hit_way[keep]]
        f = hit_ev + ep_shift[ep_id[hit_ev]]
        prv[f] = p
        nxt[p] = f

    # table[k, j] = max(next) over the 2**k positions ending at j; blocks
    # reaching past position 0 cover its sentinel, so they read infinity.
    levels = int(span.max()).bit_length()
    table = np.empty((levels, total), dtype=idx)
    table[0] = nxt
    for k in range(1, levels):
        h = 1 << (k - 1)
        table[k, :h] = total
        np.maximum(table[k - 1, h:], table[k - 1, :-h], out=table[k, h:])
    # An event at most ``assoc`` positions after its previous touch hits
    # outright: too few distinct tags came between to displace it. Only
    # the rest descend.
    before = prv[e]
    far = np.flatnonzero((before < 0) | (e - before > assoc))
    e_far = e[far]
    base_far = e_base[far]
    victim = e_far - 1
    for _ in range(assoc - 1):
        pos = np.maximum(victim - 1, base_far)
        for k in range(levels - 1, -1, -1):
            pos = np.where(table[k, pos] < e_far, pos - (1 << k), pos)
        victim = pos
    del table

    far_hit = before[far] >= victim
    far_evict = ~far_hit & (victim > base_far)
    hit = np.ones(e.shape[0], dtype=np.bool_)
    hit[far] = far_hit
    evict = np.zeros(e.shape[0], dtype=np.bool_)
    evict[far] = far_evict
    fill = far[~(far_hit | far_evict)]
    root_way[e[fill]] = ev_way[sel[fill]]
    parent = np.arange(total, dtype=idx)
    parent[e] = before
    parent[e_far] = np.where(far_hit, before[far], np.where(far_evict, victim, e_far))
    while True:
        up = parent[parent]
        if np.array_equal(up, parent):
            break
        parent = up
    ev_miss[sel] = ~hit
    ev_evict[sel] = evict
    ev_way[sel] = root_way[parent[e]]


def _assoc_layout(run: _Run, bht: CacheBHT, carry: Optional[_Keyed]) -> _Layout:
    """The :class:`_Layout` for a set-associative :class:`CacheBHT`.

    Records regroup by *physical slot* (set x associativity + way) —
    the unit PAp hangs a pattern table off — with episodes opened by
    every BHT miss (an allocation reinitialises the entry, and every
    post-flush access misses, so miss marks subsume flush boundaries).
    A slot's first record in the block continues a carried entry exactly
    when it hits.
    """
    order1, miss_r, evict_r, slot_r = _lru_metadata(run, bht, carry)
    # A stable slot-sort of the (set, time)-ordered records yields
    # (slot, time) order.
    order2 = _stable_argsort(slot_r)
    order = order1[order2]
    ep_new = miss_r[order2]
    slot_s = slot_r[order2]
    blk_new = _change_marks(slot_s)
    heads = hkey = cont = None
    if carry is not None or not run.final:
        heads = np.flatnonzero(blk_new)
        hkey = slot_s[heads]
        cont = ~ep_new[heads]
    return _Layout(order, run.out_u8[order], ep_new, blk_new, evict_r[order2],
                   heads, hkey, cont, False)


class _LayoutMemo:
    """Whole-trace set-associative layouts of the current trace.

    Serves only while ``depth`` (the open :func:`_layout_memo` scopes,
    counted under ``lock``) is positive. ``current`` is ``(arrays,
    layouts)``: the trace's cached ``TraceArrays`` — held, so its
    identity cannot be reused by another trace — and its layouts keyed
    by ``(num_sets, associativity, cs)``. A different arrays object
    replaces the pair, so at most one trace's layouts are alive.
    """

    __slots__ = ("depth", "current", "lock")

    def __init__(self) -> None:
        self.depth = 0
        self.current: Optional[tuple] = None
        self.lock = threading.Lock()

    def reset(self, depth: int) -> None:
        self.depth = depth
        self.current = None

    def layout(self, run: _Run, bht: CacheBHT) -> _Layout:
        current = self.current
        if current is None or current[0] is not run.arrays:
            current = self.current = (run.arrays, {})
        layouts = current[1]
        key = (bht.num_sets, bht.associativity, run.cs)
        layout = layouts.get(key)
        if layout is None:
            layout = _assoc_layout(run, bht, None)
            for name in _Layout.__slots__:
                value = getattr(layout, name)
                if isinstance(value, np.ndarray):
                    value.setflags(write=False)
            layouts[key] = layout
        return layout


#: This process's layout memo (see "The first-level layout memo" above).
_LAYOUT_MEMO = _LayoutMemo()


@contextmanager
def _layout_memo():
    """Serve whole-trace set-associative layouts from :data:`_LAYOUT_MEMO`
    inside the block; leaving the outermost scope empties it."""
    with _LAYOUT_MEMO.lock:
        _LAYOUT_MEMO.depth += 1
    try:
        yield
    finally:
        with _LAYOUT_MEMO.lock:
            _LAYOUT_MEMO.depth -= 1
            if not _LAYOUT_MEMO.depth:
                _LAYOUT_MEMO.reset(0)


def _slot_carry(run: _Run, layout: _Layout, carry: Optional[_Keyed], **cols) -> _Keyed:
    """The BHT slots after the block: each slot's last access gives its
    occupant pc, flush stamp and recency, next to the scheme's own
    ``cols`` (one value per head). Ideal-BHT entries a flush has already
    invalidated can never be read again and are dropped."""
    at = layout.order[layout.lasts]
    slots = _upsert(carry, layout.hkey, pc=run.pc_c[at], stamp=run.seg_c[at],
                    rec=run.t0 + at, **cols)
    if layout.ideal:
        slots = slots.select(slots.cols["stamp"] == run.fires_end)
    return slots


def _pa_patterns(layout: _Layout, k: int, carry: Optional[_Keyed]) -> np.ndarray:
    """Per-address history-register contents before each record.

    The register fills with the episode's first outcome on the first
    update and shifts afterwards, so before occurrence ``m >= 1`` it
    holds the last ``min(m, k)`` episode outcomes extended with the
    first outcome; before occurrence 0 the predictors read the all-ones
    pattern a miss would be allocated with. A head continuing a carried
    entry resumes its carried register instead.
    """
    mask = (1 << k) - 1
    window = _outcome_window(layout.out_s, k)
    first_outcome = layout.out_s[layout.ep_start].astype(np.int32)
    patterns = _fill_extended(window, layout.m, first_outcome, k)
    patterns[layout.m == 0] = mask
    if carry is not None:
        heads = layout.heads[layout.cont]
        regs = carry.get(layout.hkey[layout.cont], "reg")
        _splice(patterns, window, heads, _stretch(layout.m, heads, k), regs, k)
    return patterns


def _pa_registers_out(layout: _Layout, patterns_s: np.ndarray, k: int) -> np.ndarray:
    """Each slot's register after its last update in the block: the
    pre-update pattern shifted once — unless that update allocated the
    entry, which fills with the outcome bit instead (``history_fill``)."""
    mask = (1 << k) - 1
    lasts = layout.lasts
    out = layout.out_s[lasts].astype(np.int64)
    shifted = ((patterns_s[lasts].astype(np.int64) << 1) | out) & mask
    return np.where(layout.ep_new[lasts], out * mask, shifted)


def _kernel_pag(predictor: PAgPredictor):
    ops = _ops_for(predictor.automaton)
    k = predictor.history_bits
    bht = predictor.bht

    def kernel(run: _Run, carry):
        slots, store = carry or (None, None)
        layout = _pa_layout(run, bht, slots)
        patterns_s = _pa_patterns(layout, k, slots)
        patterns = np.empty(run.n_c, dtype=np.int32)
        patterns[layout.order] = patterns_s
        result, store = _scan_keys(run, ops, patterns, store)
        if run.final:
            return result, None
        return result, (_slot_carry(run, layout, slots,
                                    reg=_pa_registers_out(layout, patterns_s, k)), store)

    return kernel


def _kernel_psg(predictor: PSgPredictor):
    bits = np.asarray(predictor.table.bits_snapshot(), dtype=np.bool_)
    k = predictor.history_bits
    bht = predictor.bht

    def kernel(run: _Run, slots):
        layout = _pa_layout(run, bht, slots)
        patterns_s = _pa_patterns(layout, k, slots)
        pred = np.empty(run.n_c, dtype=np.bool_)
        pred[layout.order] = bits[patterns_s]
        if run.final:
            return pred, None
        return pred, _slot_carry(run, layout, slots,
                                 reg=_pa_registers_out(layout, patterns_s, k))

    return kernel


def _kernel_pap(predictor: PApPredictor):
    ops = _ops_for(predictor.automaton)
    k = predictor.history_bits
    bht = predictor.bht
    reset_on_evict = predictor.config.reset_pht_on_evict

    def kernel(run: _Run, carry):
        slots, store, next_table = carry or (None, None, 0)
        layout = _pa_layout(run, bht, slots)
        patterns_s = _pa_patterns(layout, k, slots)
        # Each slot's records open with a table: with the ideal BHT
        # every (segment, branch) episode opens a brand-new slot whose
        # table materialises in the initial state; otherwise a slot's
        # table persists across flushes and is reinitialised only when a
        # valid occupant is displaced (under the default reset policy).
        ideal = isinstance(bht, IdealBHT)
        if ideal:
            new_table = layout.ep_new
        else:
            new_table = layout.blk_new | layout.evict if reset_on_evict else layout.blk_new
        resumed = None
        if slots is not None:
            # A head resumes its slot's carried table: the ideal BHT's
            # when it hits the carried entry, a practical BHT's unless
            # the head's own allocation resets it.
            tables = slots.get(layout.hkey, "table")
            if ideal:
                resume = layout.cont
            else:
                resume = tables >= 0
                if reset_on_evict:
                    resume &= ~layout.evict[layout.heads]
                new_table = new_table.copy()
                new_table[layout.heads[resume]] = False
            resumed = (layout.heads[resume], tables[resume])
        table_start = new_table if resumed is None else new_table | layout.blk_new
        table_id = np.cumsum(table_start) - 1
        if resumed is None:
            added = int(table_id[-1]) + 1
        else:
            fresh = new_table[table_start]
            added = int(np.count_nonzero(fresh))
            ids = np.empty(fresh.shape[0], dtype=np.int64)
            ids[fresh] = next_table + np.arange(added)
            ids[table_id[resumed[0]]] = resumed[1]
            table_id = ids[table_id]
        # Sorting by (table, pattern) from the slot-sorted order keeps
        # time order inside each group (a table's records live within
        # one slot block, where this order is already chronological).
        keys = (table_id << k) | patterns_s
        result, store = _scan_keys(run, ops, keys, store, out=layout.out_s, base=layout.order)
        if run.final:
            return result, None
        slots = _slot_carry(run, layout, slots,
                            reg=_pa_registers_out(layout, patterns_s, k),
                            table=table_id[layout.lasts])
        # Tables no slot can reach again (replaced, or whose ideal-BHT
        # entry a flush invalidated) leave the store.
        store = store.select(np.isin(store.keys >> k, slots.cols["table"]))
        return result, (slots, store, next_table + added)

    return kernel


def _kernel_btb(predictor: BTBPredictor):
    ops = _ops_for(predictor.automaton)
    bht = predictor.bht

    def kernel(run: _Run, slots):
        layout = _pa_layout(run, bht, slots)
        # One automaton per episode; a head hitting a carried entry
        # resumes the entry's carried state.
        groups = layout.ep_new if slots is None else layout.ep_new | layout.blk_new
        init = None
        if slots is not None:
            starts = np.flatnonzero(groups)
            init = np.full(starts.shape[0], ops.init, dtype=np.uint8)
            init[np.searchsorted(starts, layout.heads[layout.cont])] = slots.get(
                layout.hkey[layout.cont], "state")
        result, runs = _scan(layout.out_s, groups, layout.order, ops, init, run.aggregate)
        if run.final:
            return result, None
        last_group = np.cumsum(groups)[layout.lasts] - 1
        return result, _slot_carry(run, layout, slots,
                                   state=_group_final_states(runs, groups, ops)[last_group])

    return kernel


# ----------------------------------------------------------------------
# Per-set first level: SAg, SAs
# ----------------------------------------------------------------------

def _perset_patterns(run: _Run, num_sets: int, k: int, carry: Optional[_Keyed]):
    """``(order1, set_s, out_s, patterns_s, carry)`` for the per-set
    shift registers, in (set, time) order.

    Registers are untagged — selected by an address field, never fresh —
    so their contents are simply the last ``min(d, k)`` outcomes of the
    (set, segment) episode extended with the all-ones initialisation the
    registers (re)start from (``d`` = records since the segment began in
    that set). No miss protocol: the first access after (re)init reads
    the all-ones pattern and shifts normally afterwards. A set's first
    record in the block resumes its carried register unless a flush
    fired since the set's last access (``carry``: set -> stamp, reg).
    """
    mask = (1 << k) - 1
    sets = (run.pc_c >> 2) % num_sets
    order1 = _stable_argsort(sets)
    set_s = sets[order1]
    seg_s = run.seg_c[order1]
    out_s = run.out_u8[order1]
    set_new = _change_marks(set_s)
    ep_new = _change_marks(seg_s)
    ep_new |= set_new
    since = np.arange(run.n_c, dtype=np.int32) - _start_indices(ep_new)
    window = _outcome_window(out_s, k)
    patterns_s = _fill_extended(window, since, np.int32(1), k)
    if carry is None and run.final:
        return order1, set_s, out_s, patterns_s, None
    heads = np.flatnonzero(set_new)
    hset = set_s[heads]
    if carry is not None:
        stamp, reg = carry.get(hset, "stamp", "reg")
        cont = stamp == seg_s[heads]
        resumed = heads[cont]
        _splice(patterns_s, window, resumed, _stretch(since, resumed, k), reg[cont], k)
    if not run.final:
        lasts = _lasts(heads, run.n_c)
        regs = ((patterns_s[lasts].astype(np.int64) << 1) | out_s[lasts]) & mask
        carry = _upsert(carry, hset, stamp=seg_s[lasts], reg=regs)
    return order1, set_s, out_s, patterns_s, carry


def _kernel_sag(predictor: SAgPredictor):
    ops = _ops_for(predictor.pht.automaton)
    k = predictor.history_bits
    num_sets = predictor.num_sets

    def kernel(run: _Run, carry):
        regs, store = carry or (None, None)
        order1, _set_s, _out_s, patterns_s, regs = _perset_patterns(run, num_sets, k, regs)
        patterns = np.empty(run.n_c, dtype=np.int32)
        patterns[order1] = patterns_s
        result, store = _scan_keys(run, ops, patterns, store)
        return result, (regs, store)

    return kernel


def _kernel_sas(predictor: SAsPredictor):
    ops = _ops_for(predictor.tables[0].automaton)
    k = predictor.history_bits
    num_sets = predictor.num_sets

    def kernel(run: _Run, carry):
        regs, store = carry or (None, None)
        order1, set_s, out_s, patterns_s, regs = _perset_patterns(run, num_sets, k, regs)
        # (set, pattern) keys from the set-sorted order keep time order
        # inside each per-set table group (cf. the PAp kernel).
        keys = (set_s.astype(np.int64) << k) | patterns_s
        result, store = _scan_keys(run, ops, keys, store, out=out_s, base=order1)
        return result, (regs, store)

    return kernel


# ----------------------------------------------------------------------
# Hybrid schemes: tournament
# ----------------------------------------------------------------------

CHOOSER_AUTOMATON = saturating_counter(2, initial=1)
"""The tournament chooser as an automaton: a 2-bit saturating counter
started weakly favouring the first component, stepped toward whichever
component was correct (input = "second component was right"), predicting
"use the second component" in its upper half. Exported so the
``repro.check.kernels`` prover can verify its packed encoding alongside
the paper automata."""


def _kernel_tournament(predictor: TournamentPredictor):
    first_kernel = _kernel_for(predictor.first)
    second_kernel = _kernel_for(predictor.second)
    if first_kernel is None or second_kernel is None:
        return None
    ops = _ops_for(CHOOSER_AUTOMATON)
    cmask = predictor.chooser_mask

    def kernel(run: _Run, carry):
        first, second, choosers = carry or (None, None, None)
        # Both components' guesses are needed per record even when the
        # outer run could aggregate.
        saved = run.aggregate
        run.aggregate = False
        try:
            p1, first = first_kernel(run, first)
            p2, second = second_kernel(run, second)
        finally:
            run.aggregate = saved
        pred = p1.copy()
        d = np.flatnonzero(p1 != p2)
        if d.size:
            # Choosers step only on disagreement, keyed by pc, and are
            # never flushed — one scan over the disagreement records
            # with input "second component was correct" yields each
            # record's pre-update chooser verdict.
            second_correct = (p2[d] == run.out_bool[d]).view(np.uint8)
            order, grp_new, key_s = _group_sort(run.pc_c[d] & cmask)
            use_second, choosers = _scan_store(
                run, ops, key_s, second_correct[order], grp_new, order, choosers,
                aggregate=False,
            )
            pred[d] = np.where(use_second, p2[d], p1[d])
        return pred, (first, second, choosers)

    return kernel


# ----------------------------------------------------------------------
# Static schemes
# ----------------------------------------------------------------------

def _kernel_constant(direction: bool):
    def kernel(run: _Run, carry):
        return np.full(run.n_c, direction, dtype=np.bool_), None

    return kernel


def _kernel_btfn(predictor: BTFN):
    unknown = predictor.unknown_direction

    def kernel(run: _Run, carry):
        target_c = run.arrays.target[run.arrays.cond_mask]
        return np.where(target_c == 0, unknown, target_c < run.pc_c), None

    return kernel


def _kernel_profile(predictor: ProfileGuided):
    directions = predictor.directions_snapshot()
    default = predictor.default_direction

    def kernel(run: _Run, carry):
        sites, ids = run.arrays.conditional_site_ids()
        site_dirs = np.fromiter(
            (directions.get(int(site), default) for site in sites),
            dtype=np.bool_,
            count=sites.shape[0],
        )
        return site_dirs[ids], None

    return kernel


# ----------------------------------------------------------------------
# Dispatch + public API
# ----------------------------------------------------------------------

def _kernel_for(predictor):
    """The kernel for ``predictor``, or None when unsupported.

    A kernel is ``kernel(run, carry) -> (outcome, carry)``: ``carry`` is
    None before the first block, and the outcome is a correct count or
    per-record predictions. Dispatch is on the *exact* type: a subclass
    may override predict or update semantics the kernels hard-code.
    """
    kind = type(predictor)
    if kind is AlwaysTaken:
        return _kernel_constant(True)
    if kind is AlwaysNotTaken:
        return _kernel_constant(False)
    if kind is BTFN:
        return _kernel_btfn(predictor)
    if kind is ProfileGuided:
        return _kernel_profile(predictor)

    def scannable(spec: AutomatonSpec) -> bool:
        return supports_vector_scan(spec)

    def k_ok(bits: int) -> bool:
        return bits <= _MAX_HISTORY_BITS

    if kind is GAgPredictor and scannable(predictor.automaton) and k_ok(predictor.history_bits):
        return _kernel_gag(predictor)
    if kind is GsharePredictor and scannable(predictor.automaton) and k_ok(predictor.history_bits):
        return _kernel_gshare(predictor)
    if kind is GApPredictor and scannable(predictor.automaton) and k_ok(predictor.history_bits):
        return _kernel_gap(predictor)
    if kind is GSgPredictor and k_ok(predictor.history_bits):
        return _kernel_gsg(predictor)
    if kind is PAgPredictor and scannable(predictor.automaton) \
            and k_ok(predictor.history_bits) and _supported_bht(predictor.bht):
        return _kernel_pag(predictor)
    if kind is PSgPredictor and k_ok(predictor.history_bits) and _supported_bht(predictor.bht):
        return _kernel_psg(predictor)
    if kind is PApPredictor and scannable(predictor.automaton) \
            and k_ok(predictor.history_bits) and _supported_bht(predictor.bht):
        return _kernel_pap(predictor)
    if kind is BTBPredictor and scannable(predictor.automaton) and _supported_bht(predictor.bht):
        return _kernel_btb(predictor)
    if kind is SAgPredictor and scannable(predictor.pht.automaton) and k_ok(predictor.history_bits):
        return _kernel_sag(predictor)
    if kind is SAsPredictor and scannable(predictor.tables[0].automaton) \
            and k_ok(predictor.history_bits):
        return _kernel_sas(predictor)
    if kind is GselectPredictor and scannable(predictor.pht.automaton) \
            and k_ok(predictor.history_bits + predictor.address_bits):
        return _kernel_gselect(predictor)
    if kind is TournamentPredictor and scannable(CHOOSER_AUTOMATON):
        return _kernel_tournament(predictor)
    return None


def _supported_bht(bht) -> bool:
    """Kernels model any BHT geometry the simulator builds."""
    return isinstance(bht, (IdealBHT, CacheBHT))


def kernel_supports(predictor) -> bool:
    """Whether the vectorized backend can replay ``predictor``.

    True for every scheme in the paper registry — the table-driven
    two-level configurations with ideal, direct-mapped *or*
    set-associative first levels, the BTB designs, the static schemes,
    and the hybrid/per-set extensions (tournament, gselect, SAg/SAs) —
    as long as the automata involved have <= 4 states and stabilise
    within three repeats (all of LT, A1-A4, the preset bit and the
    tournament chooser do). False only for exotic automaton extensions,
    over-long history registers, subclassed predictor types (dispatch is
    exact-type), and tournaments whose components are themselves
    unsupported — those run through the interpreted loop instead. The
    answer is the same whole-trace and streamed.
    """
    return _kernel_for(predictor) is not None


def _fold(predictor, blocks, meta, context_switches: Optional[ContextSwitchConfig],
          track_per_site: bool, warmup_branches: int, final: bool) -> SimulationResult:
    """Fold ``predictor``'s kernel over ``blocks``, threading its carry,
    the warmup budget and the absolute context-switch epochs."""
    kernel = _kernel_for(predictor)
    if kernel is None:
        raise KernelUnavailable(
            f"no vectorized kernel for {getattr(predictor, 'name', type(predictor).__name__)}"
        )
    warmup = max(int(warmup_branches), 0)
    track = bool(track_per_site)
    correct = 0
    cond_seen = 0
    switches = 0
    prev_epoch: Optional[int] = None
    fires = 0
    last_instret: Optional[int] = None
    carry = None
    per_seen: Optional[Dict[int, int]] = {} if track else None
    per_wrong: Optional[Dict[int, int]] = {} if track else None
    for block in blocks:
        if len(block) == 0:
            continue
        run = _Run(block, context_switches, track, max(warmup - cond_seen, 0),
                   prev_epoch=prev_epoch, fires_base=fires, t0=cond_seen, final=final)
        if context_switches is not None:
            first_instret = int(run.arrays.instret[0])
            if last_instret is not None and first_instret < last_instret:
                raise KernelUnavailable(
                    "instret decreases across blocks; the vectorized "
                    "context-switch model requires a non-decreasing clock"
                )
            last_instret = int(run.arrays.instret[-1])
            prev_epoch = run.last_epoch
        switches += run.switches
        fires = run.fires_end
        if run.n_c:
            if run.n_c >= 1 << _MAX_BLOCK_INDEX_BITS:
                raise KernelUnavailable(
                    f"a block of 2**{_MAX_BLOCK_INDEX_BITS} or more conditional "
                    "records: its int32 record indices would overflow"
                )
            if cond_seen + run.n_c > 1 << _MAX_TABLE_ID_BITS:
                raise KernelUnavailable(
                    f"more than 2**{_MAX_TABLE_ID_BITS} conditional records: "
                    "carried table ids would overflow their packed keys"
                )
            outcome, carry = kernel(run, carry)
            if isinstance(outcome, (int, np.integer)):
                correct += int(outcome)
            else:
                block_correct, block_seen, block_wrong = _score_predictions(run, outcome)
                correct += block_correct
                if track:
                    for pc, count in block_seen.items():
                        per_seen[pc] = per_seen.get(pc, 0) + count
                    for pc, count in block_wrong.items():
                        per_wrong[pc] = per_wrong.get(pc, 0) + count
        cond_seen += run.n_c
    return SimulationResult(
        predictor_name=predictor.name,
        trace_name=meta.name,
        dataset=meta.dataset,
        conditional_branches=max(cond_seen - warmup, 0),
        correct_predictions=correct,
        context_switches=switches,
        per_site_executions=per_seen,
        per_site_mispredictions=per_wrong,
        total_instructions=meta.total_instructions,
    )


def _score_predictions(run: _Run, pred: np.ndarray):
    """Score per-record predictions against outcomes, honouring warmup
    and (optionally) collecting the per-site dictionaries."""
    ok = pred == run.out_bool
    scored_ok = ok[run.warmup:]
    correct = int(np.count_nonzero(scored_ok))
    if not run.track_per_site:
        return correct, None, None
    sites, ids = run.arrays.conditional_site_ids()
    scored_ids = ids[run.warmup:]
    seen = np.bincount(scored_ids, minlength=sites.shape[0])
    wrong = np.bincount(scored_ids[~scored_ok], minlength=sites.shape[0])
    per_seen = {int(sites[i]): int(seen[i]) for i in np.flatnonzero(seen)}
    per_wrong = {int(sites[i]): int(wrong[i]) for i in np.flatnonzero(wrong)}
    return correct, per_seen, per_wrong


def simulate_vectorized(
    predictor,
    trace: Trace,
    context_switches: Optional[ContextSwitchConfig] = None,
    track_per_site: bool = False,
    warmup_branches: int = 0,
) -> SimulationResult:
    """Batch-replay ``trace`` through a vectorized model of ``predictor``.

    Bit-identical to :func:`repro.sim.engine.simulate` for every
    supported predictor, *assuming a freshly-constructed predictor*
    (kernels model initial tables; they neither read nor write the
    predictor's mutable state, so the instance is untouched afterwards).
    The trace is one block from the empty carry.

    Raises:
        KernelUnavailable: when no kernel covers the predictor, or the
            trace breaks a kernel precondition (decreasing ``instret``
            with context switches enabled).
    """
    return _fold(predictor, (trace,), trace.meta, context_switches,
                 track_per_site, warmup_branches, final=True)


def _traced_blocks(blocks, recorder):
    """Wrap a block iterator so each block's kernel pass is a span.

    The span opens when the block is handed to the consumer and closes
    when the consumer asks for the next one, so it covers the batch
    kernel work for that block — the per-block level of the sweep →
    cell → phase → block hierarchy. The lenient ``pop_if_open`` keeps
    exception-path generator finalization from closing another span.
    """
    for index, block in enumerate(blocks):
        span_id = recorder.push("block", cat="engine", index=index, records=len(block))
        try:
            yield block
        finally:
            recorder.pop_if_open(span_id)


def simulate_vectorized_stream(
    predictor,
    source,
    context_switches: Optional[ContextSwitchConfig] = None,
    track_per_site: bool = False,
    warmup_branches: int = 0,
    block_size: Optional[int] = None,
) -> SimulationResult:
    """Replay a :class:`repro.trace.stream.TraceSource` block by block.

    Bit-identical to :func:`simulate_vectorized` on the materialized
    trace for every supported predictor and *any* block size: the same
    kernels fold over the blocks, carrying all predictor state (pattern
    tables, history registers, BHT ways, context-switch epoch) across
    block boundaries, and flush boundaries stay pinned to absolute
    ``instret // interval`` epochs. Peak memory scales with
    ``block_size`` and the touched table entries, not the trace length.

    Raises:
        KernelUnavailable: when no kernel covers the predictor, or
            ``instret`` decreases (within a block or across blocks) with
            context switches enabled.
        ValueError: for an unbounded source or a block size < 1.
    """
    if block_size is None:
        block_size = _DEFAULT_STREAM_BLOCK
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    if getattr(source, "num_records", 0) is None:
        raise ValueError(
            "cannot simulate an unbounded source; bound it with .limit(n)"
        )
    # Span tracing of the streamed block loop: deferred import, None
    # unless tracing is on — the traced iterator wrapper only exists on
    # the traced path, so the default loop is byte-for-byte unchanged.
    from ..obs.spans import get_recorder as _get_span_recorder

    recorder = _get_span_recorder()
    blocks = source.iter_blocks(block_size)
    if recorder is not None:
        blocks = _traced_blocks(blocks, recorder)
    return _fold(predictor, blocks, source.meta, context_switches,
                 track_per_site, warmup_branches, final=False)
