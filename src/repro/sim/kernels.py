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

Set-associative BHTs (the paper's 4-way tables) are modelled exactly:
an event-compressed, set-parallel LRU pass (:func:`_assoc_layout`)
replays each set's way array — first-invalid-way allocation, true-LRU
victim choice, flush invalidation that keeps stale tags — and emits the
same (episode, slot, evict) layout the direct-mapped path derives in
closed form. Hybrid and per-set schemes compose the existing machinery:
gselect concatenates address bits into the global-history key, SAg/SAs
group per-set shift registers, and the tournament kernel runs both
component kernels per-record and arbitrates with a chooser-automaton
scan over the disagreement records. The remaining exclusions are
structural: automata beyond 4 states or without the ``f^4 == f^3``
fixed point, and history registers above ``_MAX_HISTORY_BITS``. Those
fall back to the interpreted loop — ``simulate(..., backend="auto")``
arranges this automatically via :func:`kernel_supports`.

Kernels never mutate the predictor: they read its *configuration*
(history length, automaton, BHT geometry, preset/profiled bits) and
assume it is freshly constructed, exactly as the experiment runner
builds predictors.
"""

from __future__ import annotations

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
    "stream_kernel_supports",
]

#: Longest history register the kernels accept. Pattern keys stay well
#: inside int64 and the windowing loop stays short; the paper's longest
#: register is 18 bits.
_MAX_HISTORY_BITS = 24


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
    automaton starts from ``ops.init`` — unless ``group_init`` (a
    per-record uint8 state array, consulted at each group's first
    record) supplies carried-over states, which is how the streaming
    driver resumes a pattern entry where the previous block left it.
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
        init_vals = group_init[first]
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


def _group_sort(keys: np.ndarray):
    """``(order, grp_new)``: stable sort by key + group-start marks."""
    order = _stable_argsort(keys)
    key_s = keys[order]
    grp_new = np.empty(key_s.shape[0], dtype=np.bool_)
    grp_new[0] = True
    grp_new[1:] = key_s[1:] != key_s[:-1]
    return order, grp_new


def _start_indices(new_mark: np.ndarray) -> np.ndarray:
    """For each position, the index of its group's first element.

    int32 keeps this (and its downstream arithmetic) at half the memory
    traffic; traces are nowhere near 2**31 records.
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
# The run container
# ----------------------------------------------------------------------

class _Run:
    """Prepared per-call inputs shared by every kernel.

    For whole-trace kernels the defaults apply. The streaming driver
    additionally threads ``prev_epoch`` (the context-switch epoch of the
    previous block's last record, so a flush boundary falling exactly
    between two blocks still fires) and ``fires_base`` (the global flush
    count entering this block, so ``seg_c`` values — and the per-site
    residency stamps derived from them — stay comparable across blocks).
    """

    __slots__ = ("arrays", "n_c", "out_bool", "out_u8", "seg_c", "switches",
                 "aggregate", "warmup", "track_per_site", "_pc_c",
                 "fires_base", "fires_end", "last_epoch", "head_fires",
                 "tail_fires")

    def __init__(self, trace: Trace, context_switches: Optional[ContextSwitchConfig],
                 track_per_site: bool, warmup_branches: int, *,
                 prev_epoch: Optional[int] = None, fires_base: int = 0) -> None:
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
        self.fires_base = int(fires_base)
        if context_switches is None or len(arrays) == 0:
            self.switches = 0
            self.seg_c = np.full(self.n_c, self.fires_base, dtype=np.int64)
            self.fires_end = self.fires_base
            self.last_epoch = 0 if prev_epoch is None else int(prev_epoch)
            self.head_fires = 0
            self.tail_fires = 0
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
        total_fires = int(fires_cum[-1])
        self.seg_c = self.fires_base + fires_cum[cond]
        self.fires_end = self.fires_base + total_fires
        self.last_epoch = int(epoch[-1])
        if self.n_c:
            self.head_fires = int(self.seg_c[0]) - self.fires_base
            self.tail_fires = total_fires - (int(self.seg_c[-1]) - self.fires_base)
        else:
            self.head_fires = total_fires
            self.tail_fires = total_fires

    @property
    def pc_c(self) -> np.ndarray:
        if self._pc_c is None:
            self._pc_c = self.arrays.pc[self.arrays.cond_mask]
        return self._pc_c


def _scan_scheme(run: _Run, out_sorted: np.ndarray, grp_new: np.ndarray,
                 order: np.ndarray, ops: _AutomatonOps):
    """Shared tail of every pattern-table scheme: scan, then either
    closed-form aggregate scoring or per-record expansion."""
    runs = _find_runs(out_sorted, grp_new, ops)
    if run.aggregate:
        return run.n_c - _runs_wrong_total(runs, ops)
    pred_sorted = _expand_run_preds(run.n_c, runs, ops)
    pred = np.empty(run.n_c, dtype=np.bool_)
    pred[order] = pred_sorted
    return pred


# ----------------------------------------------------------------------
# Global-history schemes: GAg, GSg, gshare, GAp
# ----------------------------------------------------------------------

def _global_history(run: _Run, k: int, fill_taken: bool) -> np.ndarray:
    """The GHR value before each conditional record, per segment."""
    seg = run.seg_c
    n = run.n_c
    new_seg = np.empty(n, dtype=np.bool_)
    new_seg[0] = True
    new_seg[1:] = seg[1:] != seg[:-1]
    since = np.arange(n, dtype=np.int32) - _start_indices(new_seg)
    window = _outcome_window(run.out_u8, k)
    fill = np.int32(1) if fill_taken else np.int32(0)
    return _fill_extended(window, since, fill, k)


def _kernel_gag(predictor: GAgPredictor):
    ops = _ops_for(predictor.automaton)
    k = predictor.history_bits

    def kernel(run: _Run):
        order, grp_new = _group_sort(_global_history(run, k, fill_taken=True))
        return _scan_scheme(run, run.out_u8[order], grp_new, order, ops)

    return kernel


def _kernel_gshare(predictor: GsharePredictor):
    ops = _ops_for(predictor.automaton)
    k = predictor.history_bits

    def kernel(run: _Run):
        ghr = _global_history(run, k, fill_taken=False)
        keys = (ghr ^ run.pc_c) & ((1 << k) - 1)
        order, grp_new = _group_sort(keys)
        return _scan_scheme(run, run.out_u8[order], grp_new, order, ops)

    return kernel


def _kernel_gap(predictor: GApPredictor):
    ops = _ops_for(predictor.automaton)
    k = predictor.history_bits

    def kernel(run: _Run):
        ghr = _global_history(run, k, fill_taken=True)
        _sites, ids = run.arrays.conditional_site_ids()
        order, grp_new = _group_sort((ids << k) | ghr)
        return _scan_scheme(run, run.out_u8[order], grp_new, order, ops)

    return kernel


def _kernel_gsg(predictor: GSgPredictor):
    bits = np.asarray(predictor.table.bits_snapshot(), dtype=np.bool_)
    k = predictor.history_bits

    def kernel(run: _Run):
        return bits[_global_history(run, k, fill_taken=True)]

    return kernel


def _kernel_gselect(predictor: GselectPredictor):
    ops = _ops_for(predictor.pht.automaton)
    k = predictor.history_bits
    addr_mask = (1 << predictor.address_bits) - 1

    def kernel(run: _Run):
        ghr = _global_history(run, k, fill_taken=True)
        keys = ((run.pc_c & addr_mask) << k) | ghr
        order, grp_new = _group_sort(keys)
        return _scan_scheme(run, run.out_u8[order], grp_new, order, ops)

    return kernel


# ----------------------------------------------------------------------
# Per-address first level: PAg, PSg, PAp, BTB
# ----------------------------------------------------------------------

class _Layout:
    """Conditional records regrouped by BHT residency.

    ``order`` stable-sorts conditional records by site key (dense pc id
    for the ideal BHT, set index for direct-mapped), which is exactly
    (site, time) order. An *episode* is one entry's tenure: it restarts
    at segment changes (flush) and, for direct-mapped tables, whenever a
    different branch claims the set. ``evict`` marks episode starts that
    displace a still-valid occupant (never true right after a flush).
    """

    __slots__ = ("order", "out_s", "ep_new", "ep_start", "m", "blk_new", "evict")

    def __init__(self, order, out_s, ep_new, ep_start, m, blk_new, evict) -> None:
        self.order = order
        self.out_s = out_s
        self.ep_new = ep_new
        self.ep_start = ep_start
        self.m = m
        self.blk_new = blk_new
        self.evict = evict


def _pa_layout(run: _Run, bht) -> _Layout:
    n = run.n_c
    if isinstance(bht, IdealBHT):
        _sites, keys = run.arrays.conditional_site_ids()
        direct = False
    elif bht.associativity > 1:
        return _assoc_layout(run, bht)
    else:
        keys = run.pc_c % bht.num_sets
        direct = True
    order = _stable_argsort(keys)
    key_s = keys[order]
    seg_s = run.seg_c[order]
    out_s = run.out_u8[order]
    blk_new = np.empty(n, dtype=np.bool_)
    blk_new[0] = True
    blk_new[1:] = key_s[1:] != key_s[:-1]
    seg_chg = np.empty(n, dtype=np.bool_)
    seg_chg[0] = True
    seg_chg[1:] = seg_s[1:] != seg_s[:-1]
    seg_chg |= blk_new
    if direct:
        pc_s = run.pc_c[order]
        pc_chg = np.empty(n, dtype=np.bool_)
        pc_chg[0] = True
        pc_chg[1:] = pc_s[1:] != pc_s[:-1]
        ep_new = seg_chg | pc_chg
        evict = pc_chg & ~seg_chg
    else:
        ep_new = seg_chg
        evict = np.zeros(n, dtype=np.bool_)
    ep_start = _start_indices(ep_new)
    m = np.arange(n, dtype=np.int32) - ep_start
    return _Layout(order, out_s, ep_new, ep_start, m, blk_new, evict)


def _pa_patterns(layout: _Layout, k: int) -> np.ndarray:
    """Per-address history-register contents before each record.

    The register fills with the episode's first outcome on the first
    update and shifts afterwards, so before occurrence ``m >= 1`` it
    holds the last ``min(m, k)`` episode outcomes extended with the
    first outcome; before occurrence 0 the predictors read the all-ones
    pattern a miss would be allocated with.
    """
    mask = (1 << k) - 1
    window = _outcome_window(layout.out_s, k)
    first_outcome = layout.out_s[layout.ep_start].astype(np.int32)
    patterns = _fill_extended(window, layout.m, first_outcome, k)
    patterns[layout.m == 0] = mask
    return patterns


def _lru_metadata(run: _Run, bht: CacheBHT, order1: np.ndarray):
    """Replay every set's LRU way array over the (set, time)-sorted
    conditional records.

    Returns per-record arrays in ``order1`` order: ``miss`` (the access
    allocated its entry), ``evict`` (the allocation displaced a valid
    occupant), and ``way`` (the physical way the record's entry lives
    in). The model mirrors :meth:`repro.core.history.CacheBHT.access`
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
    later epoch.

    Within an epoch that touches at most ``associativity`` distinct
    branches nothing is ever displaced: every first touch allocates the
    next invalid way (fill order), every later touch hits, and
    ``evict`` never fires. That is the common case for the paper's
    geometries (hundreds of sets, a handful of resident branches each)
    and is computed with pure array passes below. Only epochs with more
    distinct branches than ways — where true LRU replacement decides —
    take the event-serial round loop, restricted to exactly those
    epochs: round ``r`` processes the ``r``-th event of every still-live
    contended epoch at once with 2-D way arrays.
    """
    n = run.n_c
    assoc = bht.associativity
    set_s = (run.pc_c % bht.num_sets)[order1]
    tag_s = (run.pc_c // bht.num_sets)[order1]
    seg_s = run.seg_c[order1]

    set_chg = np.empty(n, dtype=np.bool_)
    set_chg[0] = True
    set_chg[1:] = set_s[1:] != set_s[:-1]
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
    # Fill order: the d-th distinct branch of an epoch lands in way d.
    touched = np.cumsum(is_first)  # inclusive count of first touches
    ep_start_ev = _start_indices(ep_new)
    fill = touched - touched[ep_start_ev]  # epoch starts are first touches
    grp_id_g = np.cumsum(gnew, dtype=np.int64) - 1
    grp_id = np.empty(n_ev, dtype=np.int64)
    grp_id[gorder] = grp_id_g
    grp_way = np.empty(int(grp_id_g[-1]) + 1, dtype=np.int64)
    grp_way[grp_id[first_idx]] = fill[first_idx]
    ev_way = grp_way[grp_id]

    distinct = np.bincount(ep_id[is_first], minlength=n_ep)
    contended = distinct > assoc
    if np.any(contended):
        ep_first = np.flatnonzero(ep_new)
        ep_end = np.empty(n_ep, dtype=np.int64)
        ep_end[:-1] = ep_first[1:]
        ep_end[-1] = n_ev
        c_start = ep_first[contended]
        c_end = ep_end[contended]
        n_live = c_start.shape[0]

        way_tag = np.full((n_live, assoc), -1, dtype=np.int64)
        way_rec = np.full((n_live, assoc), -1, dtype=np.int64)
        way_valid = np.zeros((n_live, assoc), dtype=np.bool_)

        far = np.iinfo(np.int64).max
        cursor = c_start.copy()
        alive = np.arange(n_live, dtype=np.int64)
        while alive.size:
            e = cursor[alive]
            valid = way_valid[alive]
            hits = valid & (way_tag[alive] == ev_tag[e, None])
            hit = hits.any(axis=1)
            invalid_any = ~valid.all(axis=1)
            lru = np.argmin(np.where(valid, way_rec[alive], far), axis=1)
            way = np.where(
                hit, np.argmax(hits, axis=1),
                np.where(invalid_any, np.argmax(~valid, axis=1), lru),
            )
            ev_miss[e] = miss = ~hit
            ev_evict[e] = miss & ~invalid_any
            ev_way[e] = way
            way_tag[alive, way] = ev_tag[e]
            way_rec[alive, way] = e  # event index: monotone in time per set
            way_valid[alive, way] = True
            cursor[alive] += 1
            alive = alive[cursor[alive] < c_end[alive]]

    # Expand events back to records: miss/evict fire only on an event's
    # first record; every record inherits its event's way.
    miss_r = np.zeros(n, dtype=np.bool_)
    evict_r = np.zeros(n, dtype=np.bool_)
    miss_r[ev_first] = ev_miss
    evict_r[ev_first] = ev_evict
    way_r = ev_way[np.cumsum(ev_new) - 1]
    return miss_r, evict_r, way_r


def _assoc_layout(run: _Run, bht: CacheBHT) -> _Layout:
    """The :class:`_Layout` for a set-associative :class:`CacheBHT`.

    Records regroup by *physical slot* (set x associativity + way) —
    the unit PAp hangs a pattern table off — with episodes opened by
    every BHT miss (an allocation reinitialises the entry, and every
    post-flush access misses, so miss marks subsume flush boundaries).
    """
    n = run.n_c
    order1 = _stable_argsort(run.pc_c % bht.num_sets)
    miss_r, evict_r, way_r = _lru_metadata(run, bht, order1)
    # A stable way-sort of the (set, time)-ordered records yields
    # (set, way, time) == (slot, time) order.
    order2 = _stable_argsort(way_r)
    order = order1[order2]
    out_s = run.out_u8[order]
    ep_new = miss_r[order2]
    evict = evict_r[order2]
    slot_s = (run.pc_c[order] % bht.num_sets) * bht.associativity + way_r[order2]
    blk_new = np.empty(n, dtype=np.bool_)
    blk_new[0] = True
    blk_new[1:] = slot_s[1:] != slot_s[:-1]
    ep_start = _start_indices(ep_new)
    m = np.arange(n, dtype=np.int32) - ep_start
    return _Layout(order, out_s, ep_new, ep_start, m, blk_new, evict)


def _supported_bht(bht) -> bool:
    """Batch kernels model any BHT geometry the simulator builds."""
    return isinstance(bht, (IdealBHT, CacheBHT))


def _stream_supported_bht(bht) -> bool:
    """Streaming kernels carry one entry per site key across blocks,
    which identifies sets with occupants — sound only for the ideal and
    direct-mapped tables. Set-associative configs take the whole-trace
    batch kernels (or the interpreted streaming loop)."""
    if isinstance(bht, IdealBHT):
        return True
    return isinstance(bht, CacheBHT) and bht.associativity == 1


def _kernel_pag(predictor: PAgPredictor):
    ops = _ops_for(predictor.automaton)
    k = predictor.history_bits
    bht = predictor.bht

    def kernel(run: _Run):
        layout = _pa_layout(run, bht)
        patterns_s = _pa_patterns(layout, k)
        patterns = np.empty(run.n_c, dtype=np.int32)
        patterns[layout.order] = patterns_s
        order, grp_new = _group_sort(patterns)
        return _scan_scheme(run, run.out_u8[order], grp_new, order, ops)

    return kernel


def _kernel_psg(predictor: PSgPredictor):
    bits = np.asarray(predictor.table.bits_snapshot(), dtype=np.bool_)
    k = predictor.history_bits
    bht = predictor.bht

    def kernel(run: _Run):
        layout = _pa_layout(run, bht)
        pred = np.empty(run.n_c, dtype=np.bool_)
        pred[layout.order] = bits[_pa_patterns(layout, k)]
        return pred

    return kernel


def _kernel_pap(predictor: PApPredictor):
    ops = _ops_for(predictor.automaton)
    k = predictor.history_bits
    bht = predictor.bht
    reset_on_evict = predictor.config.reset_pht_on_evict

    def kernel(run: _Run):
        layout = _pa_layout(run, bht)
        patterns_s = _pa_patterns(layout, k)
        if isinstance(bht, IdealBHT):
            # Every (segment, branch) episode opens a brand-new slot
            # whose pattern table materialises in the initial state.
            table_id = np.cumsum(layout.ep_new) - 1
        elif reset_on_evict:
            # A slot's table is reinitialised when a valid occupant is
            # displaced; flushes invalidate without resetting tables.
            table_id = np.cumsum(layout.blk_new | layout.evict) - 1
        else:
            table_id = np.cumsum(layout.blk_new) - 1
        # Sorting by (table, pattern) from the site-sorted order keeps
        # time order inside each group (a table's records live within
        # one site block, where this order is already chronological).
        keys = (table_id << k) | patterns_s
        order2, grp_new = _group_sort(keys)
        order = layout.order[order2]
        return _scan_scheme(run, layout.out_s[order2], grp_new, order, ops)

    return kernel


def _kernel_btb(predictor: BTBPredictor):
    ops = _ops_for(predictor.automaton)
    bht = predictor.bht

    def kernel(run: _Run):
        layout = _pa_layout(run, bht)
        return _scan_scheme(run, layout.out_s, layout.ep_new, layout.order, ops)

    return kernel


# ----------------------------------------------------------------------
# Per-set first level: SAg, SAs
# ----------------------------------------------------------------------

def _perset_patterns(run: _Run, num_sets: int, k: int):
    """``(order1, set_s, patterns_s)`` for the per-set shift registers.

    Registers are untagged — selected by an address field, never fresh —
    so their contents are simply the last ``min(d, k)`` outcomes of the
    (set, segment) episode extended with the all-ones initialisation the
    registers (re)start from (``d`` = records since the segment began in
    that set). No miss protocol: the first access after (re)init reads
    the all-ones pattern and shifts normally afterwards.
    """
    n = run.n_c
    sets = (run.pc_c >> 2) % num_sets
    order1 = _stable_argsort(sets)
    set_s = sets[order1]
    seg_s = run.seg_c[order1]
    out_s = run.out_u8[order1]
    ep_new = np.empty(n, dtype=np.bool_)
    ep_new[0] = True
    ep_new[1:] = (set_s[1:] != set_s[:-1]) | (seg_s[1:] != seg_s[:-1])
    since = np.arange(n, dtype=np.int32) - _start_indices(ep_new)
    window = _outcome_window(out_s, k)
    patterns_s = _fill_extended(window, since, np.int32(1), k)
    return order1, set_s, out_s, patterns_s


def _kernel_sag(predictor: SAgPredictor):
    ops = _ops_for(predictor.pht.automaton)
    k = predictor.history_bits
    num_sets = predictor.num_sets

    def kernel(run: _Run):
        order1, _set_s, _out_s, patterns_s = _perset_patterns(run, num_sets, k)
        patterns = np.empty(run.n_c, dtype=np.int32)
        patterns[order1] = patterns_s
        order, grp_new = _group_sort(patterns)
        return _scan_scheme(run, run.out_u8[order], grp_new, order, ops)

    return kernel


def _kernel_sas(predictor: SAsPredictor):
    ops = _ops_for(predictor.tables[0].automaton)
    k = predictor.history_bits
    num_sets = predictor.num_sets

    def kernel(run: _Run):
        order1, set_s, out_s, patterns_s = _perset_patterns(run, num_sets, k)
        # (set, pattern) keys from the set-sorted order keep time order
        # inside each per-set table group (cf. the PAp kernel).
        keys = (set_s.astype(np.int64) << k) | patterns_s
        order2, grp_new = _group_sort(keys)
        order = order1[order2]
        return _scan_scheme(run, out_s[order2], grp_new, order, ops)

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


def _per_record_preds(kernel, run: _Run) -> np.ndarray:
    """Run a component kernel forcing per-record predictions (the
    tournament needs both components' guesses even when the outer run
    could aggregate)."""
    saved = run.aggregate
    run.aggregate = False
    try:
        return kernel(run)
    finally:
        run.aggregate = saved


def _kernel_tournament(predictor: TournamentPredictor):
    first_kernel = _kernel_for(predictor.first)
    second_kernel = _kernel_for(predictor.second)
    if first_kernel is None or second_kernel is None:
        return None
    ops = _ops_for(CHOOSER_AUTOMATON)
    cmask = predictor.chooser_mask

    def kernel(run: _Run):
        p1 = _per_record_preds(first_kernel, run)
        p2 = _per_record_preds(second_kernel, run)
        pred = p1.copy()
        d = np.flatnonzero(p1 != p2)
        if d.size:
            # Choosers step only on disagreement, keyed by pc, and are
            # never flushed — one scan over the disagreement records
            # with input "second component was correct" yields each
            # record's pre-update chooser verdict.
            second_correct = p2[d] == run.out_bool[d]
            order, grp_new = _group_sort(run.pc_c[d] & cmask)
            runs = _find_runs(second_correct.view(np.uint8)[order], grp_new, ops)
            use_second = np.empty(d.size, dtype=np.bool_)
            use_second[order] = _expand_run_preds(d.size, runs, ops)
            pred[d] = np.where(use_second, p2[d], p1[d])
        return pred

    return kernel


# ----------------------------------------------------------------------
# Static schemes
# ----------------------------------------------------------------------

def _kernel_constant(direction: bool):
    def kernel(run: _Run):
        return np.full(run.n_c, direction, dtype=np.bool_)

    return kernel


def _kernel_btfn(predictor: BTFN):
    unknown = predictor.unknown_direction

    def kernel(run: _Run):
        target_c = run.arrays.target[run.arrays.cond_mask]
        return np.where(target_c == 0, unknown, target_c < run.pc_c)

    return kernel


def _kernel_profile(predictor: ProfileGuided):
    directions = predictor.directions_snapshot()
    default = predictor.default_direction

    def kernel(run: _Run):
        sites, ids = run.arrays.conditional_site_ids()
        site_dirs = np.fromiter(
            (directions.get(int(site), default) for site in sites),
            dtype=np.bool_,
            count=sites.shape[0],
        )
        return site_dirs[ids]

    return kernel


# ----------------------------------------------------------------------
# Dispatch + public API
# ----------------------------------------------------------------------

def _kernel_for(predictor):
    """The kernel closure for ``predictor``, or None when unsupported.

    Dispatch is on the *exact* type: a subclass may override predict or
    update semantics the kernels hard-code.
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


def kernel_supports(predictor) -> bool:
    """Whether :func:`simulate_vectorized` can replay ``predictor``.

    True for every scheme in the paper registry — the table-driven
    two-level configurations with ideal, direct-mapped *or*
    set-associative first levels, the BTB designs, the static schemes,
    and the hybrid/per-set extensions (tournament, gselect, SAg/SAs) —
    as long as the automata involved have <= 4 states and stabilise
    within three repeats (all of LT, A1-A4, the preset bit and the
    tournament chooser do). False only for exotic automaton extensions,
    over-long history registers, subclassed predictor types (dispatch is
    exact-type), and tournaments whose components are themselves
    unsupported — those run through the interpreted loop instead.
    """
    return _kernel_for(predictor) is not None


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

    Raises:
        KernelUnavailable: when no kernel covers the predictor, or the
            trace breaks a kernel precondition (decreasing ``instret``
            with context switches enabled).
    """
    kernel = _kernel_for(predictor)
    if kernel is None:
        raise KernelUnavailable(
            f"no vectorized kernel for {getattr(predictor, 'name', type(predictor).__name__)}"
        )
    run = _Run(trace, context_switches, track_per_site, warmup_branches)
    per_seen: Optional[Dict[int, int]] = None
    per_wrong: Optional[Dict[int, int]] = None
    if run.n_c == 0:
        correct = 0
        if run.track_per_site:
            per_seen, per_wrong = {}, {}
    else:
        outcome = kernel(run)
        if isinstance(outcome, (int, np.integer)):
            correct = int(outcome)
        else:
            correct, per_seen, per_wrong = _score_predictions(run, outcome)
    scored = max(run.n_c - run.warmup, 0)
    return SimulationResult(
        predictor_name=predictor.name,
        trace_name=trace.meta.name,
        dataset=trace.meta.dataset,
        conditional_branches=scored,
        correct_predictions=correct,
        context_switches=run.switches,
        per_site_executions=per_seen,
        per_site_mispredictions=per_wrong,
        total_instructions=trace.meta.total_instructions,
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


# ----------------------------------------------------------------------
# Streaming kernels: per-block passes with explicit state handoff
# ----------------------------------------------------------------------
#
# The whole-trace kernels above exploit one global fact: every pattern
# entry starts from the automaton's initial state, so a single sort and
# scan covers the trace. Streaming breaks that fact — a block sees
# pattern entries, history registers, and BHT residencies mid-life. The
# classes below make the carried state explicit:
#
# * pattern tables persist as dense uint8 state arrays (or per-site
#   arrays for GAp); each block gathers the stored state at every
#   group's first record (``group_init``), scans, and scatters the
#   groups' final states back;
# * the global history register is carried as an integer and spliced
#   into the first ``min(len, k)`` records of a block whose leading
#   segment continues across the boundary;
# * per-address registers / BTB entries are carried in a dict keyed by
#   site (real pc for the ideal BHT, set index for direct-mapped),
#   stamped with the global flush count at the site's last occurrence —
#   a stamp mismatch at the next occurrence means a flush intervened,
#   which invalidates the entry exactly like the sequential model.
#
# Context-switch bookkeeping stays on absolute ``instret // interval``
# epochs threaded through ``_Run`` (``prev_epoch`` / ``fires_base``), so
# block boundaries can never shift a flush — the same guarantee the
# interpreted engine's absolute ``next_switch`` arithmetic provides.

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


def _scan_with_store(run: _Run, keys: np.ndarray, store: np.ndarray,
                     ops: _AutomatonOps):
    """One block's pattern-table pass against a persistent dense store.

    Groups the block's conditional records by ``keys`` (pattern-table
    index), seeds each group's scan with the stored entry state, commits
    every touched entry's final state back into ``store``, and returns
    either the closed-form correct count or per-record predictions in
    trace order.
    """
    order, grp_new = _group_sort(keys)
    key_s = keys[order]
    out_sorted = run.out_u8[order]
    starts = np.flatnonzero(grp_new)
    start_keys = key_s[starts]
    group_init = np.zeros(run.n_c, dtype=np.uint8)
    group_init[starts] = store[start_keys]
    runs = _find_runs(out_sorted, grp_new, ops, group_init=group_init)
    store[start_keys] = _group_final_states(runs, grp_new, ops)
    if run.aggregate:
        return run.n_c - _runs_wrong_total(runs, ops)
    pred_sorted = _expand_run_preds(run.n_c, runs, ops)
    pred = np.empty(run.n_c, dtype=np.bool_)
    pred[order] = pred_sorted
    return pred


class _GlobalHistoryCarry:
    """The global history register carried across blocks.

    ``reg`` starts at the predictor's reset value (fill bit replicated),
    which is also what a flush restores — so the first block and every
    post-flush head share one code path: a block whose leading segment
    continues splices ``reg`` into its first ``min(len, k)`` records.
    """

    __slots__ = ("k", "mask", "fill_bit", "reg")

    def __init__(self, k: int, fill_taken: bool) -> None:
        self.k = k
        self.mask = (1 << k) - 1
        self.fill_bit = 1 if fill_taken else 0
        self.reg = self.mask if fill_taken else 0

    def patterns(self, run: _Run) -> np.ndarray:
        """GHR contents before each of the block's conditional records."""
        n = run.n_c
        seg = run.seg_c
        new_seg = np.empty(n, dtype=np.bool_)
        new_seg[0] = run.head_fires > 0
        new_seg[1:] = seg[1:] != seg[:-1]
        since = np.arange(n, dtype=np.int32) - _start_indices(new_seg)
        window = _outcome_window(run.out_u8, self.k)
        ghr = _fill_extended(window, since, np.int32(self.fill_bit), self.k)
        if not new_seg[0]:
            # The leading segment continues the previous block: its
            # first min(len, k) records still see carried register bits
            # above the block-local window bits.
            head_len = int(np.argmax(new_seg)) if bool(new_seg.any()) else n
            span = min(head_len, self.k)
            j = np.arange(span, dtype=np.int64)
            local = window[:span].astype(np.int64) & ((np.int64(1) << j) - 1)
            ghr[:span] = ((np.int64(self.reg) << j) | local) & self.mask
        return ghr

    def advance(self, run: _Run, ghr: Optional[np.ndarray]) -> None:
        """Roll ``reg`` past the block (flushes happen *before* the
        record they fire at, so a trailing flush resets the register
        only when it lands strictly after the last conditional)."""
        if run.n_c and run.tail_fires == 0:
            self.reg = ((int(ghr[-1]) << 1) | int(run.out_u8[-1])) & self.mask
        elif run.tail_fires > 0:
            self.reg = self.mask if self.fill_bit else 0


class _StreamStateless:
    """Per-block wrapper for kernels with no cross-block state (the
    static schemes and the preset-table second levels)."""

    __slots__ = ("_kernel",)

    def __init__(self, kernel) -> None:
        self._kernel = kernel

    def process(self, run: _Run):
        if run.n_c == 0:
            return 0
        return self._kernel(run)


class _StreamGlobalScan:
    """Streamed GAg (keys = GHR) / gshare (keys = GHR xor pc)."""

    __slots__ = ("ops", "k", "xor_pc", "hist", "pht")

    def __init__(self, predictor, xor_pc: bool) -> None:
        self.ops = _ops_for(predictor.automaton)
        self.k = predictor.history_bits
        self.xor_pc = xor_pc
        self.hist = _GlobalHistoryCarry(self.k, fill_taken=not xor_pc)
        self.pht = np.full(1 << self.k, self.ops.init, dtype=np.uint8)

    def process(self, run: _Run):
        if run.n_c == 0:
            self.hist.advance(run, None)
            return 0
        ghr = self.hist.patterns(run)
        if self.xor_pc:
            keys = (ghr ^ run.pc_c) & ((1 << self.k) - 1)
        else:
            keys = ghr
        result = _scan_with_store(run, keys, self.pht, self.ops)
        self.hist.advance(run, ghr)
        return result


class _StreamGSg:
    """Streamed GSg: preset bits read under the carried GHR."""

    __slots__ = ("bits", "hist")

    def __init__(self, predictor: GSgPredictor) -> None:
        self.bits = np.asarray(predictor.table.bits_snapshot(), dtype=np.bool_)
        self.hist = _GlobalHistoryCarry(predictor.history_bits, fill_taken=True)

    def process(self, run: _Run):
        if run.n_c == 0:
            self.hist.advance(run, None)
            return 0
        ghr = self.hist.patterns(run)
        self.hist.advance(run, ghr)
        return self.bits[ghr]


class _StreamGAp:
    """Streamed GAp: carried GHR + one dense per-site pattern table."""

    __slots__ = ("ops", "k", "hist", "tables")

    def __init__(self, predictor: GApPredictor) -> None:
        self.ops = _ops_for(predictor.automaton)
        self.k = predictor.history_bits
        self.hist = _GlobalHistoryCarry(self.k, fill_taken=True)
        self.tables: Dict[int, np.ndarray] = {}

    def process(self, run: _Run):
        if run.n_c == 0:
            self.hist.advance(run, None)
            return 0
        ghr = self.hist.patterns(run)
        sites, ids = run.arrays.conditional_site_ids()
        keys = (ids.astype(np.int64) << self.k) | ghr
        order, grp_new = _group_sort(keys)
        key_s = keys[order]
        out_sorted = run.out_u8[order]
        starts = np.flatnonzero(grp_new)
        start_keys = key_s[starts]
        # Group starts are key-sorted, so each site's groups are
        # contiguous: one searchsorted gives per-site slices.
        site_of = (start_keys >> self.k).astype(np.int64)
        patt_of = (start_keys & np.int64((1 << self.k) - 1)).astype(np.int64)
        bounds = np.searchsorted(site_of, np.arange(sites.shape[0] + 1))
        group_init = np.zeros(run.n_c, dtype=np.uint8)
        tbls = []
        for si in range(sites.shape[0]):
            tbl = self.tables.get(int(sites[si]))
            if tbl is None:
                tbl = self.tables[int(sites[si])] = np.full(
                    1 << self.k, self.ops.init, dtype=np.uint8
                )
            tbls.append(tbl)
            a, b = int(bounds[si]), int(bounds[si + 1])
            group_init[starts[a:b]] = tbl[patt_of[a:b]]
        runs = _find_runs(out_sorted, grp_new, self.ops, group_init=group_init)
        finals = _group_final_states(runs, grp_new, self.ops)
        for si in range(sites.shape[0]):
            a, b = int(bounds[si]), int(bounds[si + 1])
            tbls[si][patt_of[a:b]] = finals[a:b]
        if run.aggregate:
            result = run.n_c - _runs_wrong_total(runs, self.ops)
        else:
            pred_sorted = _expand_run_preds(run.n_c, runs, self.ops)
            pred = np.empty(run.n_c, dtype=np.bool_)
            pred[order] = pred_sorted
            result = pred
        self.hist.advance(run, ghr)
        return result


class _StreamLayout:
    """One block's conditional records in (site, time) order, plus which
    leading site occurrences continue a carried BHT entry."""

    __slots__ = ("order", "key_s", "pc_s", "seg_s", "out_s", "ep_new",
                 "heads", "lasts", "cont", "direct")

    def __init__(self, order, key_s, pc_s, seg_s, out_s, ep_new,
                 heads, lasts, cont, direct) -> None:
        self.order = order
        self.key_s = key_s
        self.pc_s = pc_s
        self.seg_s = seg_s
        self.out_s = out_s
        self.ep_new = ep_new
        self.heads = heads
        self.lasts = lasts
        self.cont = cont
        self.direct = direct


def _stream_carry_key(layout: _StreamLayout, h: int) -> int:
    # Ideal BHTs key the carry by real pc (block-local dense ids are not
    # stable across blocks); direct-mapped tables key by set index.
    return int(layout.key_s[h]) if layout.direct else int(layout.pc_s[h])


def _pa_stream_layout(run: _Run, bht, carry: Dict[int, tuple]) -> _StreamLayout:
    """Site-sorted block layout with carried-entry continuation marks.

    A carried entry is still live at the block's first occurrence of its
    site iff no flush fired since it was written (stamp == global flush
    count at the occurrence) and — for direct-mapped tables — the same
    branch still owns the set. Stale entries need no eager eviction: a
    mismatched stamp or occupant simply fails the check, and the
    occurrence opens a fresh episode exactly like the sequential model.
    """
    n = run.n_c
    if isinstance(bht, IdealBHT):
        _sites, keys = run.arrays.conditional_site_ids()
        direct = False
    else:
        keys = run.pc_c % bht.num_sets
        direct = True
    order = _stable_argsort(keys)
    key_s = keys[order]
    pc_s = run.pc_c[order]
    seg_s = run.seg_c[order]
    out_s = run.out_u8[order]
    blk_new = np.empty(n, dtype=np.bool_)
    blk_new[0] = True
    blk_new[1:] = key_s[1:] != key_s[:-1]
    seg_chg = np.empty(n, dtype=np.bool_)
    seg_chg[0] = True
    seg_chg[1:] = seg_s[1:] != seg_s[:-1]
    seg_chg |= blk_new
    if direct:
        pc_chg = np.empty(n, dtype=np.bool_)
        pc_chg[0] = True
        pc_chg[1:] = pc_s[1:] != pc_s[:-1]
        ep_new = seg_chg | pc_chg
    else:
        ep_new = seg_chg
    heads = np.flatnonzero(blk_new)
    lasts = np.empty(heads.shape[0], dtype=np.int64)
    lasts[:-1] = heads[1:] - 1
    lasts[-1] = n - 1
    cont = np.zeros(heads.shape[0], dtype=np.bool_)
    layout = _StreamLayout(order, key_s, pc_s, seg_s, out_s, ep_new,
                           heads, lasts, cont, direct)
    for hi in range(heads.shape[0]):
        h = int(heads[hi])
        entry = carry.get(_stream_carry_key(layout, h))
        if entry is not None and entry[0] == int(seg_s[h]) and entry[1] == int(pc_s[h]):
            cont[hi] = True
    return layout


def _pa_stream_patterns(layout: _StreamLayout, carry: Dict[int, tuple], k: int):
    """Per-address register contents per record, resuming carried
    registers at continuing site heads.

    Returns ``(patterns, ep2)`` where ``ep2`` is ``ep_new`` with
    continuing heads cleared — i.e. True exactly at records whose update
    hits a *fresh* entry. For a continuing head the block-local episode
    start is unknowable from this block alone; the first ``min(len, k)``
    records are spliced from the carried register, and deeper records
    are depth-``k`` pure-window values either way.
    """
    n = layout.out_s.shape[0]
    mask = (1 << k) - 1
    ep2 = layout.ep_new.copy()
    ep2[layout.heads[layout.cont]] = False
    ep_start = _start_indices(ep2)
    m = np.arange(n, dtype=np.int32) - ep_start
    window = _outcome_window(layout.out_s, k)
    first_outcome = layout.out_s[ep_start].astype(np.int32)
    patterns = _fill_extended(window, m, first_outcome, k)
    patterns[m == 0] = mask
    ep_true = np.flatnonzero(ep2)
    for hi in np.flatnonzero(layout.cont):
        h = int(layout.heads[hi])
        reg = carry[_stream_carry_key(layout, h)][2]
        nxt = int(np.searchsorted(ep_true, h, side="right"))
        end = int(ep_true[nxt]) if nxt < ep_true.shape[0] else n
        if hi + 1 < layout.heads.shape[0]:
            end = min(end, int(layout.heads[hi + 1]))
        span = min(k, end - h)
        j = np.arange(span, dtype=np.int64)
        local = window[h:h + span].astype(np.int64) & ((np.int64(1) << j) - 1)
        patterns[h:h + span] = ((np.int64(reg) << j) | local) & mask
    return patterns, ep2


def _pa_register_carry_out(layout: _StreamLayout, carry: Dict[int, tuple],
                           patterns: np.ndarray, ep2: np.ndarray, k: int) -> None:
    """Record each site's post-block register into the carry dict.

    The register after a site's last update is the pre-update pattern
    shifted once — unless that update hit a fresh entry (``ep2`` True),
    which fills with the outcome bit instead, mirroring
    ``history_fill`` in the sequential model.
    """
    mask = (1 << k) - 1
    for hi in range(layout.heads.shape[0]):
        h = int(layout.heads[hi])
        last = int(layout.lasts[hi])
        out_last = int(layout.out_s[last])
        if ep2[last]:
            reg = mask if out_last else 0
        else:
            reg = ((int(patterns[last]) << 1) | out_last) & mask
        carry[_stream_carry_key(layout, h)] = (
            int(layout.seg_s[last]), int(layout.pc_s[last]), reg
        )


class _StreamPAg:
    """Streamed PAg: carried per-site registers + one dense shared PHT."""

    __slots__ = ("ops", "k", "bht", "carry", "pht")

    def __init__(self, predictor: PAgPredictor) -> None:
        self.ops = _ops_for(predictor.automaton)
        self.k = predictor.history_bits
        self.bht = predictor.bht
        self.carry: Dict[int, tuple] = {}
        self.pht = np.full(1 << self.k, self.ops.init, dtype=np.uint8)

    def process(self, run: _Run):
        if run.n_c == 0:
            return 0
        layout = _pa_stream_layout(run, self.bht, self.carry)
        patterns_s, ep2 = _pa_stream_patterns(layout, self.carry, self.k)
        _pa_register_carry_out(layout, self.carry, patterns_s, ep2, self.k)
        patterns = np.empty(run.n_c, dtype=np.int32)
        patterns[layout.order] = patterns_s
        return _scan_with_store(run, patterns, self.pht, self.ops)


class _StreamPSg:
    """Streamed PSg: carried per-site registers reading preset bits."""

    __slots__ = ("bits", "k", "bht", "carry")

    def __init__(self, predictor: PSgPredictor) -> None:
        self.bits = np.asarray(predictor.table.bits_snapshot(), dtype=np.bool_)
        self.k = predictor.history_bits
        self.bht = predictor.bht
        self.carry: Dict[int, tuple] = {}

    def process(self, run: _Run):
        if run.n_c == 0:
            return 0
        layout = _pa_stream_layout(run, self.bht, self.carry)
        patterns_s, ep2 = _pa_stream_patterns(layout, self.carry, self.k)
        _pa_register_carry_out(layout, self.carry, patterns_s, ep2, self.k)
        pred = np.empty(run.n_c, dtype=np.bool_)
        pred[layout.order] = self.bits[patterns_s]
        return pred


class _StreamBTB:
    """Streamed BTB: carried per-entry automaton states.

    Episodes stay block-local scan groups; a continuing head seeds its
    episode with the carried state instead of the automaton init, and
    each site's final episode state is carried out.
    """

    __slots__ = ("ops", "bht", "carry")

    def __init__(self, predictor: BTBPredictor) -> None:
        self.ops = _ops_for(predictor.automaton)
        self.bht = predictor.bht
        self.carry: Dict[int, tuple] = {}

    def process(self, run: _Run):
        if run.n_c == 0:
            return 0
        layout = _pa_stream_layout(run, self.bht, self.carry)
        n = run.n_c
        group_init = np.full(n, self.ops.init, dtype=np.uint8)
        for h in layout.heads[layout.cont]:
            group_init[int(h)] = self.carry[_stream_carry_key(layout, int(h))][2]
        runs = _find_runs(layout.out_s, layout.ep_new, self.ops,
                          group_init=group_init)
        finals = _group_final_states(runs, layout.ep_new, self.ops)
        grp_starts = np.flatnonzero(layout.ep_new)
        if run.aggregate:
            result = n - _runs_wrong_total(runs, self.ops)
        else:
            pred_sorted = _expand_run_preds(n, runs, self.ops)
            pred = np.empty(n, dtype=np.bool_)
            pred[layout.order] = pred_sorted
            result = pred
        for hi in range(layout.heads.shape[0]):
            h = int(layout.heads[hi])
            last = int(layout.lasts[hi])
            g = int(np.searchsorted(grp_starts, last, side="right")) - 1
            self.carry[_stream_carry_key(layout, h)] = (
                int(layout.seg_s[last]), int(layout.pc_s[last]), int(finals[g])
            )
        return result


#: GAp streams one dense ``2**k``-entry table per distinct site, so its
#: streamed kernel is gated tighter than ``_MAX_HISTORY_BITS``.
_MAX_STREAM_GAP_BITS = 16


def _stream_kernel_for(predictor):
    """A fresh per-block kernel (``process(run)``) or None.

    Same exact-type dispatch as :func:`_kernel_for`. PAp is excluded: a
    direct-mapped PAp whose tables survive eviction would need every
    (set, pattern) entry carried across blocks — the interpreted loop
    streams it instead.
    """
    kind = type(predictor)
    if kind is AlwaysTaken:
        return _StreamStateless(_kernel_constant(True))
    if kind is AlwaysNotTaken:
        return _StreamStateless(_kernel_constant(False))
    if kind is BTFN:
        return _StreamStateless(_kernel_btfn(predictor))
    if kind is ProfileGuided:
        return _StreamStateless(_kernel_profile(predictor))

    def k_ok(bits: int) -> bool:
        return bits <= _MAX_HISTORY_BITS

    if kind is GAgPredictor and supports_vector_scan(predictor.automaton) \
            and k_ok(predictor.history_bits):
        return _StreamGlobalScan(predictor, xor_pc=False)
    if kind is GsharePredictor and supports_vector_scan(predictor.automaton) \
            and k_ok(predictor.history_bits):
        return _StreamGlobalScan(predictor, xor_pc=True)
    if kind is GApPredictor and supports_vector_scan(predictor.automaton) \
            and predictor.history_bits <= _MAX_STREAM_GAP_BITS:
        return _StreamGAp(predictor)
    if kind is GSgPredictor and k_ok(predictor.history_bits):
        return _StreamGSg(predictor)
    if kind is PAgPredictor and supports_vector_scan(predictor.automaton) \
            and k_ok(predictor.history_bits) and _stream_supported_bht(predictor.bht):
        return _StreamPAg(predictor)
    if kind is PSgPredictor and k_ok(predictor.history_bits) \
            and _stream_supported_bht(predictor.bht):
        return _StreamPSg(predictor)
    if kind is BTBPredictor and supports_vector_scan(predictor.automaton) \
            and _stream_supported_bht(predictor.bht):
        return _StreamBTB(predictor)
    return None


def stream_kernel_supports(predictor) -> bool:
    """Whether :func:`simulate_vectorized_stream` covers ``predictor``.

    A strict subset of :func:`kernel_supports`: PAp (whose per-entry
    pattern tables would all need carrying), GAp above 16 history bits,
    set-associative BHTs (whose LRU way state the per-site carry dicts
    cannot represent), and the hybrid/per-set extensions fall back to
    the interpreted streaming loop. ``backend="auto"`` degrades
    gracefully (and logs a ``kernel_fallback`` event); an explicit
    ``backend="vectorized"`` with ``block_size`` raises
    :class:`KernelUnavailable` naming the gap — drop the block size to
    keep the fast path.
    """
    return _stream_kernel_for(predictor) is not None


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
    trace for every supported predictor and *any* block size: all
    predictor state (pattern tables, history registers, BHT residency,
    context-switch epoch) is carried across block boundaries, and flush
    boundaries stay pinned to absolute ``instret // interval`` epochs.
    Peak memory scales with ``block_size``, not the trace length.

    Raises:
        KernelUnavailable: when no streaming kernel covers the
            predictor, or ``instret`` decreases (within a block or
            across blocks) with context switches enabled.
        ValueError: for an unbounded source or a block size < 1.
    """
    kernel = _stream_kernel_for(predictor)
    if kernel is None:
        name = getattr(predictor, "name", type(predictor).__name__)
        hint = (
            " (the whole-trace batch kernel covers it: drop block_size)"
            if _kernel_for(predictor) is not None
            else ""
        )
        raise KernelUnavailable(f"no streaming kernel for {name}{hint}")
    if block_size is None:
        block_size = _DEFAULT_STREAM_BLOCK
    if block_size < 1:
        raise ValueError("block_size must be >= 1")
    if getattr(source, "num_records", 0) is None:
        raise ValueError(
            "cannot simulate an unbounded source; bound it with .limit(n)"
        )
    meta = source.meta
    warmup = max(int(warmup_branches), 0)
    track = bool(track_per_site)
    correct = 0
    cond_seen = 0
    switches = 0
    prev_epoch: Optional[int] = None
    fires = 0
    last_instret: Optional[int] = None
    per_seen: Optional[Dict[int, int]] = {} if track else None
    per_wrong: Optional[Dict[int, int]] = {} if track else None
    # Span tracing of the streamed block loop: deferred import, None
    # unless tracing is on — the traced iterator wrapper only exists on
    # the traced path, so the default loop is byte-for-byte unchanged.
    from ..obs.spans import get_recorder as _get_span_recorder

    recorder = _get_span_recorder()
    blocks = source.iter_blocks(block_size)
    if recorder is not None:
        blocks = _traced_blocks(blocks, recorder)
    for block in blocks:
        if len(block) == 0:
            continue
        w_local = max(warmup - cond_seen, 0)
        run = _Run(block, context_switches, track, w_local,
                   prev_epoch=prev_epoch, fires_base=fires)
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
        outcome = kernel.process(run)
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
    scored = max(cond_seen - warmup, 0)
    return SimulationResult(
        predictor_name=predictor.name,
        trace_name=meta.name,
        dataset=meta.dataset,
        conditional_branches=scored,
        correct_predictions=correct,
        context_switches=switches,
        per_site_executions=per_seen,
        per_site_mispredictions=per_wrong,
        total_instructions=meta.total_instructions,
    )
