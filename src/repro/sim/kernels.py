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
   with the fill bit — computable for all records at once from about
   ``2 log2 k`` doubling ORs (the ``a + b`` window is the ``a`` window
   OR the ``b`` window ``a`` records back, shifted up ``a`` bits).
   Per-address registers need the records grouped by BHT residency
   first, which one stable sort provides.
3. **Pattern-table evolution as a composed automaton.** Grouping records
   by (table, pattern) key makes each pattern entry's life a sequence of
   outcomes driving one automaton. One sort groups them: each record
   packs into a word ``key << (s + 1) | trace_index << 1 | outcome``
   (``s`` = bit width of ``n - 1``), ``uint32`` when it fits 32 bits
   and int64 otherwise, and sorting the words yields the group starts
   (where adjacent words differ above bit ``s``), the outcomes in group
   order and — only when the records are scored one by one — the int32
   trace index of each, with ties broken by trace index, i.e. time
   order inside every group; the sorted keys only when a carried store
   needs them. A kernel hands the sort a builder of its keys, which the
   sort calls, so the keys and what they were built from (the GHR, the
   history patterns, gshare's pcs) die inside the sort, and the words
   are built in the keys' buffer when its items are as wide. Keys too
   wide for an int64 word fall back to a stable argsort and gathers.
   The per-outcome transition function
   packs into a byte (:func:`repro.core.automata.packed_transition_code`),
   function composition becomes a 256x256 table lookup, and a segmented
   doubling scan yields every entry's state *before* each update: each
   segment opens with the constant code of its entry state, so every
   composite maps any state to the state entering its run. Runs
   of identical outcomes collapse via ``f^m = f^3`` for ``m >= 3``
   (:func:`repro.core.automata.supports_vector_scan`), which both bounds
   the scan depth and allows closed-form scoring of whole runs when no
   per-record output is needed. Run starts and lengths are int32 and
   every other per-run column one byte; no pass over a whole block
   allocates an intp index of it (:func:`_flatnonzero32`).

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
The replay takes any pc stream: the §3.2 fetch model replays its
target cache through it too (:mod:`repro.sim.fetch`).
The replay's working set stays near 50 B per conditional record (the
pcs' 8 B gather included): sets and slots are ``uint16``, ways one
byte, epoch ids and previous touches int32 per event, every temporary
is dropped after its last reader, and contended epochs replay in
batches of about ``_REPLAY_BATCH`` positions, so the lifting table
(int32, one row per level) is bounded by the batch, or by the longest
epoch, rather than by the block.

Hybrid and per-set schemes compose the same machinery: gselect
concatenates address bits into the global-history key, SAg/SAs group
per-set shift registers, and the tournament kernel takes both component
kernels' mispredicted records and arbitrates with a chooser-automaton
scan over the records where exactly one component misses. Automata
beyond 4 states or without the ``f^4 == f^3`` fixed point, and history
registers above ``_MAX_HISTORY_BITS``, have no kernel:
``simulate(..., backend="auto")`` runs them through the interpreted
loop (see :func:`kernel_supports`).

Scoring
-------

A kernel's outcome is a correct count or the block-local, trace-order
indices of its mispredicted conditional records, each once: int32 from
the pattern-table scans (int32 positions mapped through int32 orders)
and the per-address layouts, and int64 from ``flatnonzero`` in the
direct schemes. A consumer
that offsets them by a block's start widens them first. Scanning
schemes return the count when the run aggregates (no warmup, no
per-site tracking); otherwise :func:`_run_wrong_positions`
reads the mispredicted records off the runs — up to three head offsets
per run where ``head_wrong`` steps up, plus the whole tail where
``tail_mis`` is set — and :func:`_scan` maps them through the group
sort back to trace order. GSg, PSg and the static schemes return where
their direct predictions miss; the tournament rebuilds its components'
miss masks from their indices. :func:`_kernel_blocks` is the one
block loop: it threads the carry and yields each block's run with its
outcome. :func:`_fold` counts the indices at or past the warmup, and
the per-site dictionaries are ``bincount`` s of the site ids of every
scored record (executions) and of the scored indices (mispredictions).
The miss analyses of :mod:`repro.analysis` read the same generator's
indices through :func:`repro.sim.engine._replay_mispredictions`; its
interference and bound tallies fold their own kernels over it
(:func:`_source_tallies`).

The per-trace memo: first-level layouts and kernel inputs
---------------------------------------------------------

A BHT's residency — which records miss or evict, and which slot each
lives in — depends only on the trace, the first level (ideal,
direct-mapped or set-associative) and the context-switch model, never
on history length or automaton, and neither does most of what a
kernel prepares before its scan. So every whole-trace call
(``run.final`` and no carry) takes them from ``_LAYOUT_MEMO``,
whether it comes from ``simulate``, ``run_case`` or
:func:`repro.sim.parallel.execute_matrix` (which runs its cells
case-major, so each trace arrives once). The memo has two tiers:

* **Layouts and inputs of the current trace.** The memo belongs to the
  trace's cached ``TraceArrays``: it holds a weak reference to that
  object and its :class:`_TraceMemo`. That holds the full layouts,
  keyed by ``(num_sets, associativity)`` (``None`` for the ideal BHT)
  and ``(interval, switch_on_traps)``, and the scheme-independent
  inputs: the :class:`_Run` columns (outcomes, flush segments, switch
  count) and the global register's restart distances per
  context-switch model, one outcome window in trace order and one per
  memoized layout, and the per-site execution tally per warmup. A
  window is as narrow as the longest history asked of it so far
  (``uint8`` up to 8 bits, ``uint16`` up to 16, int32 for
  ``_MAX_HISTORY_BITS``), serves every shorter history
  (:func:`_fill_extended` reads only its low ``k`` bits), and a longer
  one rebuilds it wider in its place. Per conditional record that is
  1 B of outcomes, 4 B of flush segments (int32 below ``2**31``
  flushes; one zero-stride value without context switches), 1 B of
  restart distances and 1, 2 or 4 B of window per context-switch
  model, plus 9 B per layout (its int32 ``order`` and five 1-byte
  columns) and its 1, 2 or 4 B window.
  The pcs are not kept (few kernels read them, and a run gathers them
  on first use), and the trace's arrays cache the int32 site ids (4 B)
  beside them. The memo holds one trace's at most: a call on another
  trace replaces them, the reference's callback drops them once the
  trace's arrays are collected, and ``_LAYOUT_MEMO.clear()`` drops them
  too. They serve the repeated cells of one trace.
* **Residency words of every live trace.** A set-associative layout
  costs an LRU replay (:func:`_lru_metadata`), and every experiment of
  a sweep walks the same traces in turn, evicting the previous one's
  full layouts. So the first replay of a trace at a geometry and
  context-switch model also packs each conditional record's residency
  into one word, ``slot << 2 | miss << 1 | evict`` in trace order
  (:func:`_residency_words`), kept on the ``TraceArrays``'
  ``residency`` dict under the same key. A later miss at that key
  rebuilds the layout with one stable slot sort (:func:`_words_layout`)
  instead of replaying. The words are ``uint16`` up to ``2**14`` BHT
  entries, so they cost 2 B x conditional records x set-associative
  keys, and they die with the trace's arrays. Ideal and direct-mapped
  layouts keep no words: building one is a single sort.

Memoized arrays and words are read-only, so a kernel that writes into a
shared input fails loudly, and the shared per-site tally is copied into
each result. Streamed and carried calls never touch either tier, and
static training builds its run and layouts outside them, so training a
predictor never evicts the memo of the trace under test. With tracing
on, each whole-trace :class:`_Run` records one ``inputs`` span whose
``source`` is ``memo`` or ``build``, :func:`_pa_layout` one ``layout``
span per call whose ``source`` names the tier that served it, and
:func:`_scan_keys` one ``scan`` span per call.

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

import weakref
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
from ..trace.events import Trace, _stable_argsort
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

#: Packed group-sort words of at most this many bits are ``uint32``, and
#: wider ones int64 (see :func:`_group_sort`).
_NARROW_WORD_BITS = 32

#: Records per slice where a pass over the whole block would otherwise
#: allocate a full-width index or temporary (:func:`_flatnonzero32`,
#: :func:`_group_sort`'s indices and group marks).
_CHUNK = 1 << 16

#: Per-block record indices are int32 (a layout's ``order``, the group
#: sort's trace order and so the scanning kernels' mispredicted
#: indices, group starts, episode offsets and run lengths, the LRU
#: replay's epoch ids, previous touches, positions and lifting table)
#: and so are site ids, so a block must hold fewer than
#: ``2**_MAX_BLOCK_INDEX_BITS`` conditional records. Indices that leave
#: the block stay int64: a carried slot's ``rec`` (``t0`` + index) and
#: the miss analyses' trace positions.
#: Only the sorts' own permutations stay intp, which gathers take
#: without a conversion.
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

    __slots__ = ("first", "length", "lcap", "out", "state0")

    def __init__(self, first, length, lcap, out, state0) -> None:
        self.first = first
        self.length = length
        self.lcap = lcap
        self.out = out
        self.state0 = state0


def _find_runs(out_u8: np.ndarray, grp_new: np.ndarray, ops: _AutomatonOps,
               group_init: Optional[np.ndarray] = None) -> _Runs:
    """Collapse group-sorted outcomes into runs and scan their states.

    ``out_u8`` must be ordered group-major with time order inside each
    group; ``grp_new`` marks each group's first element. Every group's
    automaton starts from ``ops.init`` — unless ``group_init`` (one
    uint8 state per group, in group order) supplies carried states,
    which is how a streamed block resumes pattern entries where the
    previous block left them.

    Run starts and lengths are int32 and every other per-run column one
    byte; each temporary is dropped after its last reader.
    """
    n = out_u8.shape[0]
    starts = grp_new.copy()
    starts[1:] |= out_u8[1:] != out_u8[:-1]
    first, out, grp_first = _flatnonzero32(starts, out_u8, grp_new)
    del starts
    nruns = first.shape[0]
    # Block-local lengths fit int32, and the capped ones a byte.
    length = np.empty(nruns, dtype=np.int32)
    np.subtract(first[1:], first[:-1], out=length[:-1])
    length[-1] = n - first[-1]
    lcap = np.minimum(length, 3).astype(np.uint8)
    code = out << 2
    code |= lcap
    code = ops.pow_codes.ravel()[code]

    # Exclusive segmented composition scan (Hillis-Steele doubling):
    # after the loop, H[i] is the code that maps any state to the one
    # entering run i. A segment opens at each group start, with the
    # constant code of the group's initial state (``v * 0b01010101``),
    # and after each run whose code is constant, which pins the state
    # regardless of anything earlier; every other run starts from its
    # predecessor's code.
    H = np.empty(nruns, dtype=np.uint8)
    H[0] = IDENTITY_CODE
    H[1:] = code[:-1]
    del code
    seg_new = ops.is_const[H]
    seg_new |= grp_first
    if group_init is None:
        np.copyto(H, np.uint8(ops.init * 0b01010101), where=grp_first)
    else:
        H[grp_first] = group_init * np.uint8(0b01010101)
    del grp_first
    # Only runs at least ``step`` into their segment change in an
    # iteration: each pass takes the previous pass's active runs that
    # are deep enough.
    depth = _since_start(seg_new)
    np.logical_not(seg_new, out=seg_new)
    active, depth = _flatnonzero32(seg_new, depth)
    del seg_new
    step = 1
    while active.shape[0]:
        _compose_step(H, active, step, ops.compose_flat)
        step <<= 1
        keep = depth >= step
        active = active[keep]
        depth = depth[keep]
    H &= 3  # the state each code maps state 0 to
    return _Runs(first, length, lcap, out, H)


def _compose_step(H: np.ndarray, active: np.ndarray, step: int, compose_flat: np.ndarray) -> None:
    """One doubling pass: for every ``i`` in ``active``, ``H[i]`` becomes
    ``H[i - step]`` followed by ``H[i]``, from the values before the
    pass. Slices of the active runs go highest first, so no slice reads
    a run that an earlier one wrote; within a slice the gathers precede
    the write."""
    for lo, hi in reversed(list(_chunks(active.shape[0]))):
        at = active[lo:hi].astype(np.intp)
        prior = H[at - step].astype(np.uint16)
        prior <<= 8
        prior |= H[at]
        H[at] = compose_flat[prior]


def _flatnonzero32(mask: np.ndarray, *columns: np.ndarray) -> tuple:
    """``np.flatnonzero(mask)`` as int32, then each of ``columns`` at
    those positions, built a chunk at a time: the gathers take a chunk's
    intp indices (int32 ones gather slower), and no index of the whole
    block is ever allocated."""
    n = mask.shape[0]
    count = int(np.count_nonzero(mask))
    found = np.empty(count, dtype=np.int32)
    picked = [np.empty(count, dtype=column.dtype) for column in columns]
    at = 0
    for lo, hi in _chunks(n):
        part = np.flatnonzero(mask[lo:hi])
        end = at + part.shape[0]
        for column, out in zip(columns, picked):
            out[at:end] = column[lo:hi][part]
        part += lo
        found[at:end] = part
        at = end
    return (found, *picked)


def _run_cells(runs: _Runs) -> np.ndarray:
    """Each run's ``outcome * 4 + entry state`` (uint8), the row of the
    automaton's run tables it reads."""
    cell = runs.out.astype(np.uint8) << 2
    cell |= runs.state0
    return cell


def _runs_wrong_total(runs: _Runs, ops: _AutomatonOps) -> int:
    """Total mispredictions, scored per run in closed form."""
    cell = _run_cells(runs)
    cell <<= 2
    cell |= runs.lcap
    # The tables are tiny: narrow them per call, so a mutated table (the
    # encoding prover's mutation tests) still reaches the score.
    head = ops.head_wrong.ravel().astype(np.uint8)[cell].sum(dtype=np.int64)
    cell >>= 2
    tail = ops.tail_mis.ravel().astype(np.bool_)[cell]
    del cell
    spans = runs.length[tail].sum(dtype=np.int64) - runs.lcap[tail].sum(dtype=np.int64)
    return int(head + spans)


def _run_wrong_positions(runs: _Runs, ops: _AutomatonOps) -> np.ndarray:
    """Group-sorted positions (int32) of the mispredicted records, each
    once.

    Head offset ``j < lcap`` of a run mispredicts exactly when
    ``head_wrong`` steps up between ``j`` and ``j + 1``; past the head
    the automaton sits at its fixed point, so the whole tail
    ``first + 3 ...`` mispredicts when ``tail_mis`` is set and none of
    it otherwise.
    """
    cell = _run_cells(runs)
    step_wrong = (np.diff(ops.head_wrong, axis=2) > 0).reshape(8, 3)
    first = runs.first.astype(np.int32, copy=False)
    parts = [first[step_wrong[:, 0][cell]]]
    for j in (1, 2):
        wrong = step_wrong[:, j][cell]
        wrong &= runs.lcap > j
        parts.append(first[wrong] + np.int32(j))
    tail = ops.tail_mis.ravel().astype(np.bool_)[cell]
    del cell
    if tail.any():
        spans = (runs.length[tail] - runs.lcap[tail]).astype(np.int32)
        shift = first[tail] + np.int32(3)
        shift -= np.cumsum(spans, dtype=np.int32)
        shift += spans
        positions = np.repeat(shift, spans)
        positions += np.arange(positions.shape[0], dtype=np.int32)
        parts.append(positions)
    return np.concatenate(parts)


# ----------------------------------------------------------------------
# Sorting / grouping / history-window helpers
# ----------------------------------------------------------------------

def _change_marks(values: np.ndarray) -> np.ndarray:
    """True at index 0 and wherever a value differs from the one before."""
    marks = np.empty(values.shape[0], dtype=np.bool_)
    marks[:1] = True
    marks[1:] = values[1:] != values[:-1]
    return marks


def _lasts(heads: np.ndarray, n: int) -> np.ndarray:
    """The last index of each group, given every group's first."""
    lasts = np.empty(heads.shape[0], dtype=np.int64)
    lasts[:-1] = heads[1:] - 1
    lasts[-1] = n - 1
    return lasts


def _group_sort(keys, out_u8: np.ndarray, base: Optional[np.ndarray] = None,
                need_order: bool = True, need_keys: bool = True):
    """``(order, grp_new, key_s, out_s)``: records grouped by their
    non-negative ``keys``, ties broken by trace index (time order).

    ``order`` holds each grouped record's int32 trace index (None unless
    ``need_order``), ``grp_new`` marks group starts, and ``key_s`` (int64,
    None unless ``need_keys``) and ``out_s`` are the sorted keys and the
    outcomes in the same order. ``keys`` and ``out_u8`` are in trace
    order, or in a ``base`` order (``base[i]`` = trace index of element
    ``i``).

    One sort of the unique words ``key << (s + 1) | trace_index << 1 |
    outcome`` gives all four: groups start where adjacent words differ
    above bit ``s``. The words are ``uint32`` when they fit 32 bits
    (``_NARROW_WORD_BITS``), else int64; keys too wide for an int64 word
    take a stable argsort and gathers instead.

    ``keys`` is handed over: an array the sort may overwrite (the words
    are built in it when its items are as wide as the words'), or a
    callable that builds one. The sort calls a builder itself, so the
    keys live only in its frame and die once the words are built.
    """
    if callable(keys):
        keys = keys()
    n = keys.shape[0]
    s = (n - 1).bit_length()
    bits = int(keys.max()).bit_length() + s + 1
    if bits > 63:
        order = _stable_argsort(keys) if base is None else np.lexsort((base, keys))
        key_s = keys[order]
        out_s = out_u8[order]
        if base is not None:
            order = base[order]
        return (order.astype(np.int32, copy=False) if need_order else None,
                _change_marks(key_s), key_s if need_keys else None, out_s)
    dtype = np.dtype(np.uint32 if bits <= _NARROW_WORD_BITS else np.int64)
    if keys.flags.writeable and keys.dtype.kind in "iu" and keys.dtype.itemsize == dtype.itemsize:
        words = keys.view(dtype)
    else:
        words = keys.astype(dtype)
    del keys
    words <<= s
    for lo, hi in _chunks(n):
        part = words[lo:hi]
        if base is None:
            part |= np.arange(lo, hi, dtype=dtype)
        else:
            np.bitwise_or(part, base[lo:hi], out=part, casting="unsafe")
    words <<= 1
    words |= out_u8
    words.sort()
    # Group starts, a chunk at a time: no full-width temporary.
    grp_new = np.empty(n, dtype=np.bool_)
    grp_new[0] = True
    for lo, hi in _chunks(n, 1):
        np.not_equal(words[lo:hi] >> (s + 1), words[lo - 1:hi - 1] >> (s + 1),
                     out=grp_new[lo:hi])
    key_s = (words >> (s + 1)).astype(np.int64, copy=False) if need_keys else None
    out_s = words.astype(np.uint8)  # the low byte; its bit 0 is the outcome
    out_s &= 1
    order = None
    if need_order:
        words >>= 1
        words &= (1 << s) - 1
        # A masked uint32 word is its own int32 index.
        order = words.view(np.int32) if dtype.itemsize == 4 else words.astype(np.int32)
    return order, grp_new, key_s, out_s


def _chunks(n: int, start: int = 0):
    """``(lo, hi)`` bounds of ``_CHUNK``-record slices covering
    ``start..n``."""
    for lo in range(start, n, _CHUNK):
        yield lo, min(lo + _CHUNK, n)


def _running_count(marks: np.ndarray, dtype=np.int32) -> np.ndarray:
    """``np.cumsum(marks, dtype=dtype)`` in one buffer: a cumsum that
    casts its input first copies all of it."""
    count = marks.astype(dtype)
    np.cumsum(count, out=count)
    return count


def _start_indices(new_mark: np.ndarray) -> np.ndarray:
    """For each position, the index of its group's first element.

    int32 keeps this (and its downstream arithmetic) at half the memory
    traffic; :func:`_kernel_blocks` refuses blocks of
    ``2**_MAX_BLOCK_INDEX_BITS`` or more records. Built in one buffer.
    """
    starts = np.arange(new_mark.shape[0], dtype=np.int32)
    starts *= new_mark
    np.maximum.accumulate(starts, out=starts)
    return starts


def _outcome_window(out_u8: np.ndarray, k: int, dtype=np.int32) -> np.ndarray:
    """``W[i]`` = the previous ``k`` outcomes before position ``i``,
    newest in bit 0 (group boundaries handled by the callers' masks), as
    ``dtype``, which must hold ``k`` bits.

    Built in log depth: with ``V_a`` the ``a``-record window,
    ``V_{a+b}[i] = V_a[i] | V_b[i - a] << a``. Doubling ``V_1`` gives
    ``V_1, V_2, V_4, ...``, and the powers in ``k``'s binary expansion
    combine into ``V_k``.
    """
    n = out_u8.shape[0]
    window = np.zeros(n, dtype=dtype)  # V_have
    power = np.zeros(n, dtype=dtype)  # V_width
    power[1:] = out_u8[:-1]
    have = 0
    width = 1
    while True:
        if k & width:
            if have == 0:
                window[:] = power
            elif have < n:
                window[have:] |= power[:n - have] << have
            have += width
        if width << 1 > k:
            return window
        if width < n:
            power[width:] |= power[:n - width] << width
        width <<= 1


def _since_restart(seg: np.ndarray) -> np.ndarray:
    """Records since the last change of ``seg`` (a global register's
    restart), per record."""
    return _since_start(_change_marks(seg))


def _since_start(new_mark: np.ndarray) -> np.ndarray:
    """For each position, how far it lies past its group's first element
    (int32), in one buffer."""
    since = _start_indices(new_mark)
    for lo, hi in _chunks(since.shape[0]):
        part = since[lo:hi]
        np.subtract(np.arange(lo, hi, dtype=np.int32), part, out=part)
    return since


def _sorted_change_marks(values: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``_change_marks(values[order])``, gathered a chunk at a time."""
    n = order.shape[0]
    marks = np.empty(n, dtype=np.bool_)
    marks[:1] = True
    for lo, hi in _chunks(n, 1):
        part = values[order[lo - 1:hi]]
        np.not_equal(part[1:], part[:-1], out=marks[lo:hi])
    return marks


def _fill_extended(window: np.ndarray, since: np.ndarray, fill, k: int) -> np.ndarray:
    """History-register contents: ``min(since, k)`` window bits with the
    ``fill`` bit extended through the remaining upper positions, in the
    window's dtype. ``fill`` is a scalar, or None for a register filled
    with its restart's outcome: the oldest of its ``since`` window bits
    (the value at ``since == 0`` is then left to the caller). Only the
    low ``k`` bits of ``window`` are read, so a wider window serves, and
    ``since`` may be capped anywhere at or above ``k``. Registers
    restart rarely, so the records less than ``k`` past a restart are
    patched after one full-width mask, through a boolean mask and their
    compressed narrow columns (no index array)."""
    mask = (1 << k) - 1
    patterns = window & mask
    short = since < k
    if short.any():
        one = patterns.dtype.type(1)
        since_s = since[short].astype(patterns.dtype)
        low_mask = (one << since_s) - one
        window_s = window[short]
        if fill is None:
            fill = (window_s >> (np.maximum(since_s, one) - one)) & one
        else:
            fill = int(fill)
        window_s &= low_mask
        low_mask ^= mask
        window_s |= fill * low_mask
        patterns[short] = window_s
    return patterns


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

    A whole-trace run built with ``memo`` (the kernel block loop's
    whole-trace calls) takes its columns from the trace's
    :class:`_TraceMemo` and keeps it as ``memo``; every other run builds
    its own, and ``memo`` is None.
    """

    __slots__ = ("arrays", "n_c", "out_bool", "out_u8", "seg_c", "switches",
                 "aggregate", "warmup", "track_per_site", "_pc_c",
                 "fires_end", "last_epoch", "t0", "final", "cs", "memo")

    def __init__(self, trace: Trace, context_switches: Optional[ContextSwitchConfig],
                 track_per_site: bool, warmup_branches: int, *,
                 prev_epoch: Optional[int] = None, fires_base: int = 0,
                 t0: int = 0, final: bool = True, memo: bool = False) -> None:
        arrays = trace.as_arrays()
        self.arrays = arrays
        self.warmup = max(int(warmup_branches), 0)
        self.track_per_site = bool(track_per_site)
        self.aggregate = self.warmup == 0 and not self.track_per_site
        self.t0 = int(t0)
        self.final = bool(final)
        self.cs = None if context_switches is None else (
            context_switches.interval, context_switches.switch_on_traps)
        self._pc_c = None
        self.memo = None
        if memo and final and t0 == 0 and prev_epoch is None and fires_base == 0:
            self.memo = _LAYOUT_MEMO.entry(arrays)
            columns = _traced("inputs", self.memo.run_columns, arrays, context_switches, self.cs)
        else:
            columns = _run_columns(arrays, context_switches, prev_epoch, int(fires_base))
        self.out_bool, self.seg_c, self.switches, self.fires_end, self.last_epoch = columns
        self.out_u8 = self.out_bool.view(np.uint8)
        self.n_c = int(self.out_bool.shape[0])

    @property
    def pc_c(self) -> np.ndarray:
        """The conditional records' pcs, gathered on first use: most
        whole-trace kernels never read them, so the memo keeps none."""
        if self._pc_c is None:
            self._pc_c = self.arrays.pc[self.arrays.cond_mask]
        return self._pc_c


def _run_columns(arrays, context_switches: Optional[ContextSwitchConfig],
                 prev_epoch: Optional[int], fires_base: int) -> tuple:
    """A :class:`_Run`'s ``(out_bool, seg_c, switches, fires_end,
    last_epoch)``. ``seg_c`` is int32 unless the flush count reaches
    ``2**31``; without context switches it is one read-only zero-stride
    value."""
    out_bool = arrays.taken[arrays.cond_mask]
    if context_switches is None or len(arrays) == 0:
        seg_c = np.broadcast_to(_flush_dtype(fires_base)(fires_base), out_bool.shape)
        return out_bool, seg_c, 0, fires_base, 0 if prev_epoch is None else int(prev_epoch)
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
    switches = int(np.count_nonzero(fires))
    seg_c = _running_count(fires, _flush_dtype(fires_base + switches))[arrays.cond_mask]
    seg_c += fires_base
    return out_bool, seg_c, switches, fires_base + switches, int(epoch[-1])


def _flush_dtype(fires_end: int):
    """Flush counts (``seg_c`` and the stamps derived from it) are int32
    below ``2**31``, like site ids; carried stamps are int64."""
    return np.int32 if fires_end < 1 << 31 else np.int64


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


def _scan(out_s: np.ndarray, grp_new: np.ndarray, order: Optional[np.ndarray],
          ops: _AutomatonOps, init: Optional[np.ndarray], aggregate: bool):
    """``(outcome, runs)``: scan group-sorted outcomes, then score either
    in closed form (a correct count) or per record (the mispredicted
    records' indices in the trace order ``order`` maps back to; only
    read when not ``aggregate``)."""
    runs = _find_runs(out_s, grp_new, ops, init)
    if aggregate:
        return out_s.shape[0] - _runs_wrong_total(runs, ops), runs
    return order[_run_wrong_positions(runs, ops)], runs


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
                grp_new: np.ndarray, order: Optional[np.ndarray], store: Optional[_Keyed],
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


def _scan_keys(run: _Run, ops: _AutomatonOps, keys, store: Optional[_Keyed],
               out: Optional[np.ndarray] = None, base: Optional[np.ndarray] = None):
    """Group records by pattern-table index and scan them. ``keys`` is
    the builder of the keys (or the keys, handed over; see
    :func:`_group_sort`). The keys and ``out`` may be in a ``base``
    order (``base[i]`` = trace index of element ``i``); ties break by
    trace index. With tracing on, each call is one ``scan`` span."""
    return _traced("scan", _sort_and_scan, run, ops, keys, store, out, base)


def _sort_and_scan(run: _Run, ops: _AutomatonOps, keys, store: Optional[_Keyed],
                   out: Optional[np.ndarray], base: Optional[np.ndarray]):
    """:func:`_scan_keys`'s ``((result, store), None)``. Only a store to
    seed from or write back needs the sorted keys."""
    order, grp_new, key_s, out_s = _group_sort(
        keys, run.out_u8 if out is None else out, base, need_order=not run.aggregate,
        need_keys=store is not None or not run.final)
    return _scan_store(run, ops, key_s, out_s, grp_new, order, store), None


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
    if run.memo is None:
        since = _since_restart(seg)
        window = _outcome_window(run.out_u8, k)
    else:
        since = run.memo.since_restart(run)
        window = run.memo.window(None, run.out_u8, k)
    ghr = _fill_extended(window, since, reset & 1, k)
    if carry is not None and carry[0] == int(seg[0]) and carry[1] != reset:
        heads = np.zeros(1, dtype=np.int64)
        _splice(ghr, window, heads, _stretch(since, heads, k), np.array([carry[1]]), k)
    if run.final:
        return ghr, None
    register = ((int(ghr[-1]) << 1) | int(run.out_u8[-1])) & ((1 << k) - 1)
    return ghr, (int(seg[-1]), register)


def _kernel_global(ops: _AutomatonOps, k: int, reset: int, index):
    """GAg, gshare and gselect: one pattern table indexed by
    ``index(run, ghr)`` (which may write into ``ghr``); carries the GHR
    and the table. The sort builds the GHR and the index itself, so
    neither outlives it."""

    def kernel(run: _Run, carry):
        hist, store = carry or (None, None)

        def keys():
            nonlocal hist
            ghr, hist = _global_history(run, k, reset, hist)
            return index(run, ghr)

        result, store = _scan_keys(run, ops, keys, store)
        return result, (hist, store)

    return kernel


def _kernel_gag(predictor: GAgPredictor):
    k = predictor.history_bits
    return _kernel_global(_ops_for(predictor.automaton), k, (1 << k) - 1, lambda run, ghr: ghr)


def _gathered_pcs(run: _Run) -> np.ndarray:
    """The run's conditional pcs, gathered afresh unless the run has
    them already, for a pass that reads them once and drops them (gshare
    and gselect before their sort, the layout builds and the LRU replay
    after their sets)."""
    return run.arrays.pc[run.arrays.cond_mask] if run._pc_c is None else run._pc_c


def _kernel_gshare(predictor: GsharePredictor):
    k = predictor.history_bits
    mask = (1 << k) - 1

    def index(run: _Run, ghr: np.ndarray) -> np.ndarray:
        # Only the low k bits survive, and a wrapping cast keeps them.
        np.bitwise_xor(ghr, _gathered_pcs(run), out=ghr, casting="unsafe")
        ghr &= mask
        return ghr

    return _kernel_global(_ops_for(predictor.automaton), k, 0, index)


def _kernel_gselect(predictor: GselectPredictor):
    k = predictor.history_bits
    addr_mask = (1 << predictor.address_bits) - 1

    def index(run: _Run, ghr: np.ndarray) -> np.ndarray:
        # ``address_bits + k`` is at most ``_MAX_HISTORY_BITS``.
        keys = np.empty(run.n_c, dtype=np.int32)
        np.bitwise_and(_gathered_pcs(run), addr_mask, out=keys, casting="unsafe")
        keys <<= k
        keys |= ghr
        return keys

    return _kernel_global(_ops_for(predictor.pht.automaton), k, (1 << k) - 1, index)


def _site_ids(run: _Run, known: Optional[_Keyed]):
    """``(ids, known)``: a stable id per conditional record's pc. Ids
    are dense in first-seen block order, so they survive across blocks
    in the carried pc -> id map ``known``."""
    sites, ids = run.arrays.conditional_site_ids()
    if known is None:
        return ids, _Keyed(sites.astype(np.int64), id=np.arange(sites.shape[0]))
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

        def keys():
            nonlocal hist, known
            ghr, hist = _global_history(run, k, reset, hist)
            ids, known = _site_ids(run, known)
            # Site ids are int32; the keys are too while ``id << k`` fits.
            wide = int(ids.max()).bit_length() + k > 31
            keys = ids.astype(np.int64 if wide else np.int32)
            keys <<= k
            keys |= ghr
            return keys

        result, store = _scan_keys(run, ops, keys, store)
        return result, (hist, known, store)

    return kernel


def _kernel_gsg(predictor: GSgPredictor):
    bits = np.asarray(predictor.table.bits_snapshot(), dtype=np.bool_)
    k = predictor.history_bits

    def kernel(run: _Run, carry):
        ghr, carry = _global_history(run, k, (1 << k) - 1, carry)
        return np.flatnonzero(bits[ghr] != run.out_bool), carry

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
    last episode start or head, capped at 255 (``uint8``: its readers
    compare it with a history length). ``order`` is int32 and every
    other per-record column one byte, so a memoized layout costs 9 B
    per conditional record.

    ``heads``, ``lasts`` (each slot's first and last record), ``hkey``
    (each head's slot) and ``cont`` are None when the block neither
    resumes nor carries out slots.
    """

    __slots__ = ("order", "out_s", "ep_new", "m", "blk_new", "evict", "heads", "lasts",
                 "hkey", "cont", "ideal")

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
        m = _since_start(ep_new if heads is None else ep_new | blk_new)
        np.minimum(m, 255, out=m)
        self.m = m.astype(np.uint8)


def _pa_layout(run: _Run, bht, carry: Optional[_Keyed]) -> _Layout:
    """The slot layout, resuming ``carry``'s entries (keyed by slot,
    with the occupant pc and the flush stamp of its last access); a
    whole-trace call is served from :data:`_LAYOUT_MEMO`.

    With tracing on, each call is one ``layout`` span whose ``source``
    says where the layout came from: ``memo`` (a memoized full layout),
    ``words`` (rebuilt from the trace's residency words), ``replay``
    (:func:`_lru_metadata` ran) or ``build`` (an ideal or direct-mapped
    layout was sorted).
    """
    return _traced("layout", _layout_and_source, run, bht, carry)


def _traced(name: str, build, *args):
    """The value of ``build(*args)``, which returns ``(value, source)``.
    With tracing on, the call is one ``name`` span (cat ``kernel``) with
    ``source`` as its arg unless that is None; with tracing off nothing
    is recorded."""
    # Deferred import, as in simulate_vectorized_stream: None unless
    # tracing is on.
    from ..obs.spans import get_recorder as _get_span_recorder

    recorder = _get_span_recorder()
    if recorder is None:
        return build(*args)[0]
    span_id = recorder.push(name, cat="kernel")
    source = None
    try:
        value, source = build(*args)
    finally:
        recorder.pop_through(span_id, **({} if source is None else {"source": source}))
    return value


def _layout_and_source(run: _Run, bht, carry: Optional[_Keyed]):
    """:func:`_pa_layout`'s layout and its span ``source``."""
    if carry is None and run.final:
        return _LAYOUT_MEMO.layout(run, bht)
    return _build_layout(run, bht, carry), "replay" if _set_associative(bht) else "build"


def _set_associative(bht) -> bool:
    return isinstance(bht, CacheBHT) and bht.associativity > 1


def _build_layout(run: _Run, bht, carry: Optional[_Keyed]) -> _Layout:
    """:func:`_pa_layout` without the memo or the residency words."""
    if _set_associative(bht):
        return _assoc_layout(run, bht, carry)
    ideal = isinstance(bht, IdealBHT)
    if ideal:
        _sites, keys = run.arrays.conditional_site_ids()
    else:
        # Direct-mapped sets in the narrowest unsigned dtype.
        pcs = _gathered_pcs(run)
        keys = np.empty(run.n_c, dtype=np.min_scalar_type(bht.num_sets - 1))
        np.remainder(pcs, bht.num_sets, out=keys, casting="unsafe")
    order = _stable_argsort(keys)
    key_s = keys[order]
    del keys
    out_s = run.out_u8[order]
    blk_new = _change_marks(key_s)
    ep_new = blk_new.copy()
    if run.switches:
        ep_new |= _sorted_change_marks(run.seg_c, order)
    if ideal:
        evict = np.zeros(run.n_c, dtype=np.bool_)
    else:
        pc_chg = _sorted_change_marks(pcs, order)
        del pcs
        evict = pc_chg & ~ep_new
        ep_new |= pc_chg
        del pc_chg
    # Gathers take the sort's intp permutation (int32 indices gather
    # slower); the layout keeps an int32 one.
    order = order.astype(np.int32)
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


def _lru_metadata(pcs, seg_c: Optional[np.ndarray], num_sets: int, assoc: int,
                  carry: Optional[_Keyed]):
    """Replay ``num_sets`` LRU sets of ``assoc`` ways over a stream of
    accesses in (set, time) order.

    ``pcs`` builds the accesses' pcs (a BHT caller's gather, so they die
    in the replay); ``seg_c`` holds their flush segments, non-decreasing,
    or is None for a stream never flushed and never carried.

    Returns ``order1`` (that order) and per-record arrays in it: ``miss``
    (the access allocated its entry), ``evict`` (the allocation displaced
    a valid occupant), and ``slot`` (set x associativity + the way the
    record's entry lives in; ``uint16`` up to ``2**16`` BHT entries,
    else ``uint32``). The model mirrors :meth:`repro.core.history.CacheBHT.access`
    exactly: hits refresh recency, misses claim the first invalid way by
    index (else the true-LRU victim), and a flush invalidates every way
    while keeping its tag and recency — only ``access`` ticks the clock,
    so recency order is access order.

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
    replacement decides — are replayed by :func:`_lru_replay` from LRU
    stack distance (Mattson et al., IBM Sys. J. 1970): a recency-window
    query per event finds the last touch of the ``assoc``-th most recent
    distinct tag, which decides hit or miss and names the victim, and
    every event inherits its way from its previous touch, its victim, or
    its fill. A set's carried ways enter the replay as its first epoch's
    oldest events.

    Working set: the records' sets are ``uint16`` (up to ``2**16``
    sets) and only the intp ``order1`` and the 1-byte event marks stay
    per record; per event the epoch ids and previous touches are int32,
    ways and marks one byte, and the sort permutations stay intp because
    they feed gathers (int32 indices gather slower). Each temporary is
    dropped after its last reader, and the replay runs a bounded batch
    of epochs at a time.
    """
    pc_c = pcs()
    n = pc_c.shape[0]
    switching = seg_c is not None and n and seg_c[0] != seg_c[-1]
    sets = np.empty(n, dtype=np.min_scalar_type(num_sets - 1))
    np.remainder(pc_c, num_sets, out=sets, casting="unsafe")
    order1 = _stable_argsort(sets)
    set_s = sets[order1]
    del sets
    # A new event wherever the pc (which fixes the set) or the flush
    # segment changes.
    pc_s = pc_c[order1]
    del pc_c
    ev_new = _change_marks(pc_s)
    seg_s = seg_c[order1] if switching else None
    if seg_s is not None:
        ev_new[1:] |= seg_s[1:] != seg_s[:-1]
    ev_first = np.flatnonzero(ev_new)
    n_ev = ev_first.shape[0]
    ev_pc = pc_s[ev_first]
    del pc_s
    ev_set = set_s[ev_first]
    del set_s
    # Epoch boundaries: a new set, or a segment change within the set.
    ep_new = _change_marks(ev_set)
    ev_seg = None
    if seg_s is not None:
        ev_seg = seg_s[ev_first]
        del seg_s
        ep_new[1:] |= ev_seg[1:] != ev_seg[:-1]
    ep_first = np.flatnonzero(ep_new)
    n_ep = ep_first.shape[0]
    ep_set = ev_set[ep_first]
    # Each epoch's flush stamp, which a carried way must match: one for
    # the block without a switch.
    if carry is not None:
        ep_seg = seg_c[:1] if ev_seg is None else ev_seg[ep_first]
    del ev_set, ev_seg, ev_first
    ep_id = _running_count(ep_new)
    ep_id -= 1
    del ep_new

    # First touch of each (epoch, tag) group: a stable sort by tag then
    # by (already monotone) epoch puts each group's events in time
    # order with the first touch leading. Epochs never span sets, so
    # the pc alone identifies the branch within a group.
    by_tag = _stable_argsort(ev_pc // num_sets)
    gorder = by_tag[_stable_argsort(ep_id[by_tag])]
    del by_tag
    gnew = _change_marks(ep_id[gorder])
    g_pc = ev_pc[gorder]
    gnew[1:] |= g_pc[1:] != g_pc[:-1]
    del g_pc
    first_idx = gorder[gnew]
    f_ep = ep_id[first_idx]
    del ep_id

    ev_miss = np.zeros(n_ev, dtype=np.bool_)
    ev_miss[first_idx] = True
    seeds = None
    if carry is not None:
        slots = (ep_set.astype(np.int64) * assoc)[:, None] + np.arange(assoc)
        c_stamp, c_pc, c_rec = carry.get(slots, "stamp", "pc", "rec")
        c_valid = c_stamp == ep_seg[:, None]
        # Within one set, equal pcs are equal tags.
        hit_ways = c_valid[f_ep] & (c_pc[f_ep] == ev_pc[first_idx][:, None])
        carried_hit = hit_ways.any(axis=1)
        hit_way = np.argmax(hit_ways, axis=1)
        ev_miss[first_idx[carried_hit]] = False
    del ev_pc
    # Fill order: an epoch's d-th new branch takes its d-th free way.
    fresh = _running_count(ev_miss)
    fresh -= ev_miss
    rank = fresh[first_idx] - fresh[ep_first[f_ep]]
    del fresh
    if carry is None:
        first_way = rank
        distinct = np.bincount(f_ep, minlength=n_ep)
    else:
        free = np.argsort(c_valid, axis=1, kind="stable")
        first_way = np.where(carried_hit, hit_way, free[f_ep, np.minimum(rank, assoc - 1)])
        # Each epoch's ways, valid ones first by recency, seed the replay.
        by_rec = np.argsort(np.where(c_valid, c_rec, np.iinfo(np.int64).max), axis=1)
        seeds = (c_valid.sum(axis=1), by_rec, f_ep[carried_hit], first_idx[carried_hit],
                 hit_way[carried_hit])
        distinct = np.bincount(f_ep[~carried_hit], minlength=n_ep) + seeds[0]
    del rank
    # Every event takes its group's first way; a contended epoch's ways
    # are overwritten by the replay (only its fill misses keep theirs,
    # which are below ``assoc``).
    ev_way = np.empty(n_ev, dtype=np.min_scalar_type(assoc - 1))
    ev_way[gorder] = np.repeat(first_way.astype(ev_way.dtype),
                               np.diff(np.flatnonzero(gnew), append=n_ev))
    del first_way, first_idx, f_ep
    ev_evict = np.zeros(n_ev, dtype=np.bool_)
    contended = distinct > assoc
    if np.any(contended):
        # Each event's previous touch in its group (-1 at a first touch).
        prev_ev = np.full(n_ev, -1, dtype=np.int32)
        same = ~gnew[1:]
        prev_ev[gorder[1:][same]] = gorder[:-1][same]
        del gorder, gnew, same
        _lru_replay(assoc, ep_first, contended, prev_ev, seeds, ev_miss, ev_evict, ev_way)
        del prev_ev
    else:
        del gorder, gnew

    # Expand events back to records: miss/evict fire only on an event's
    # first record; every record inherits its event's slot.
    slot_dtype = np.uint16 if num_sets * assoc <= 1 << 16 else np.uint32
    ev_slot = np.repeat(ep_set.astype(slot_dtype) * assoc, np.diff(ep_first, append=n_ev))
    ev_slot += ev_way
    del ev_way
    ev_first = np.flatnonzero(ev_new)
    del ev_new
    slot_r = np.repeat(ev_slot, np.diff(ev_first, append=n))
    del ev_slot
    miss_r = np.zeros(n, dtype=np.bool_)
    evict_r = np.zeros(n, dtype=np.bool_)
    miss_r[ev_first] = ev_miss
    evict_r[ev_first] = ev_evict
    return order1, miss_r, evict_r, slot_r


#: Positions per LRU replay batch. Contended epochs are replayed a batch
#: at a time, so the lifting table and the descent's temporaries stay
#: bounded however long the block is; an epoch longer than a batch is
#: replayed alone.
_REPLAY_BATCH = 1 << 16


def _lru_replay(assoc: int, ep_first, contended, prev_ev, seeds,
                ev_miss, ev_evict, ev_way) -> None:
    """Overwrite ``ev_miss``, ``ev_evict`` and ``ev_way`` on the events
    of the ``contended`` epochs with their exact true-LRU replay.

    ``ep_first`` holds each epoch's first event and ``prev_ev`` each
    event's previous touch of the same tag in its epoch (-1 at a first
    touch). ``seeds`` is None without a carry, else ``(n_valid, by_rec,
    hit_ep, hit_ev, hit_way)``: per epoch, its count of carried valid
    ways and its ways with the valid ones leading, oldest recency first;
    and the first touches that hit a carried way, with their epoch and
    that way.

    Each contended epoch is laid out on one position axis as a sentinel,
    then its carried valid ways as pseudo-events (oldest recency first),
    then its events; the epochs are replayed in batches of about
    ``_REPLAY_BATCH`` positions. An epoch's set always holds the
    ``min(assoc, D)`` most recently touched of the ``D`` distinct tags
    seen so far — the top of the LRU stack (Mattson et al., "Evaluation
    techniques for storage hierarchies", IBM Sys. J. 1970) — so event
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

    Loops run over batches, lifting levels, associativity and
    pointer-jumping depth only, never over an epoch's events.
    """
    n_seed = np.zeros(ep_first.shape[0], dtype=np.int64) if seeds is None else seeds[0]
    ep_len = np.diff(ep_first, append=prev_ev.shape[0])
    eps = np.flatnonzero(contended)
    span = 1 + n_seed[eps] + ep_len[eps]
    heads = np.flatnonzero(_change_marks((np.cumsum(span) - span) // _REPLAY_BATCH))
    for batch in np.split(eps, heads[1:]):
        _replay_batch(assoc, batch, ep_first[batch], ep_len[batch], n_seed[batch], prev_ev,
                      seeds, ev_miss, ev_evict, ev_way)


def _replay_batch(assoc: int, eps, c_first, c_len, n_seed, prev_ev, seeds,
                  ev_miss, ev_evict, ev_way) -> None:
    """:func:`_lru_replay` over the contended epochs ``eps``, whose first
    events, lengths and carried valid ways are ``c_first``, ``c_len``
    and ``n_seed``."""
    span = 1 + n_seed + c_len
    base = np.cumsum(span) - span
    total = int(base[-1] + span[-1])
    # int32 positions halve the lifting table; blocks stay below 2**31
    # records, but pseudo-events and sentinels can push a pathological
    # block past it.
    idx = np.int32 if total < 1 << 31 else np.int64
    # The batch's events (``sel``; each epoch's are consecutive) and
    # their positions (``e``).
    skip = np.cumsum(c_len) - c_len
    sel = np.arange(int(c_len.sum())) + np.repeat(c_first - skip, c_len)
    shift = np.repeat(base + 1 + n_seed - c_first, c_len)
    e = (sel + shift).astype(idx)
    # Same-tag neighbours: consecutive members of one (epoch, tag) group.
    before = prev_ev[sel].astype(idx)
    linked = before >= 0
    before[linked] += shift[linked].astype(idx)
    del shift
    root_way = np.empty(total, dtype=ev_way.dtype)
    if seeds is not None:
        _n, by_rec, hit_ep, hit_ev, hit_way = seeds
        by_rec = by_rec[eps]
        is_seed = np.arange(assoc) < n_seed[:, None]
        root_way[((base + 1)[:, None] + np.arange(assoc))[is_seed]] = by_rec[is_seed]
        # A first touch that hits a carried way follows its pseudo-event.
        j = np.searchsorted(eps, hit_ep)
        keep = eps[np.minimum(j, eps.shape[0] - 1)] == hit_ep
        j = j[keep]
        recency = np.argsort(by_rec, axis=1)  # each way's pseudo-event rank
        at = hit_ev[keep] - c_first[j] + skip[j]
        before[at] = base[j] + 1 + recency[j, hit_way[keep]]
        linked[at] = True

    # table[k, j] = max(next) over the 2**k positions ending at j; blocks
    # reaching past position 0 cover its sentinel, so they read infinity.
    levels = int(span.max()).bit_length()
    table = np.empty((levels, total), dtype=idx)
    table[0] = total
    table[0][before[linked]] = e[linked]
    del linked
    for k in range(1, levels):
        h = 1 << (k - 1)
        table[k, :h] = total
        np.maximum(table[k - 1, h:], table[k - 1, :-h], out=table[k, h:])
    # An event at most ``assoc`` positions after its previous touch hits
    # outright: too few distinct tags came between to displace it. Only
    # the rest descend.
    far = np.flatnonzero((before < 0) | (e - before > assoc))
    e_far = e[far]
    base_far = np.repeat(base.astype(idx), c_len)[far]
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
    order1, miss_r, evict_r, slot_r = _lru_metadata(
        lambda: _gathered_pcs(run), run.seg_c, bht.num_sets, bht.associativity, carry)
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
    return _Layout(order.astype(np.int32), run.out_u8[order], ep_new, blk_new,
                   evict_r[order2], heads, hkey, cont, False)


def _residency_words(run: _Run, bht: CacheBHT) -> np.ndarray:
    """Replay the whole trace's set-associative BHT and pack each
    conditional record's residency, in trace order, into one read-only
    word ``slot << 2 | miss << 1 | evict`` (``slot`` = set x
    associativity + way). ``uint16`` holds every slot of a BHT with at
    most ``2**14`` entries, ``uint32`` of one below ``2**30``, which a
    :class:`CacheBHT` (one object per entry) never reaches."""
    order1, miss_r, evict_r, slot_r = _lru_metadata(
        lambda: _gathered_pcs(run), run.seg_c, bht.num_sets, bht.associativity, None)
    dtype = np.uint16 if bht.num_sets * bht.associativity <= 1 << 14 else np.uint32
    packed = slot_r.astype(dtype, copy=False)
    packed <<= 2
    packed |= miss_r.view(np.uint8) << 1
    packed |= evict_r
    del slot_r, miss_r, evict_r
    words = np.empty(run.n_c, dtype=dtype)
    words[order1] = packed
    words.flags.writeable = False
    return words


def _words_layout(run: _Run, words: np.ndarray) -> _Layout:
    """The whole-trace :class:`_Layout` of :func:`_assoc_layout`, rebuilt
    from residency words by one stable slot sort, which keeps time order
    within each slot."""
    order = _stable_argsort(words >> 2)
    words_s = words[order]
    out_s = run.out_u8[order]
    order = order.astype(np.int32)
    return _Layout(order, out_s, (words_s & 2) != 0, _change_marks(words_s >> 2),
                   (words_s & 1) != 0, None, None, None, False)


def _read_only(*values) -> None:
    for value in values:
        if isinstance(value, np.ndarray):
            value.setflags(write=False)


class _TraceMemo:
    """One trace's whole-trace layouts and scheme-independent kernel
    inputs, all read-only:

    * ``layouts``: :class:`_Layout` by ``(num_sets, associativity, cs)``
      (``None, None`` for the ideal BHT);
    * ``columns``: a :class:`_Run`'s ``(out_bool, seg_c, switches,
      fires_end, last_epoch)`` by ``cs``;
    * ``since``: records since the global register's last restart,
      capped at ``_MAX_HISTORY_BITS`` (``uint8``), by ``cs``;
    * ``windows``: one outcome window per layout whose ``out_s`` it
      windows (``None`` for trace order), as narrow as the longest
      history asked of it so far: 8 bits in ``uint8`` for ``k <= 8``,
      16 in ``uint16`` for ``k <= 16``, ``_MAX_HISTORY_BITS`` in int32
      beyond (:func:`_window_type`). :func:`_fill_extended` reads only
      the low ``k`` bits, so a window serves every history length up to
      its width, and a longer one rebuilds it wider in its place;
    * ``seen``: the per-site execution tally by warmup.
    """

    __slots__ = ("layouts", "columns", "since", "windows", "seen")

    def __init__(self) -> None:
        self.layouts: Dict[tuple, _Layout] = {}
        self.columns: Dict[Optional[tuple], tuple] = {}
        self.since: Dict[Optional[tuple], np.ndarray] = {}
        self.windows: Dict[Optional[_Layout], np.ndarray] = {}
        self.seen: Dict[int, Dict[int, int]] = {}

    def run_columns(self, arrays, context_switches: Optional[ContextSwitchConfig],
                    cs: Optional[tuple]):
        """``(columns, source)``: the whole-trace run's columns under
        ``cs`` and the ``inputs`` span source."""
        columns = self.columns.get(cs)
        if columns is not None:
            return columns, "memo"
        columns = _run_columns(arrays, context_switches, None, 0)
        _read_only(*columns)
        return self.columns.setdefault(cs, columns), "build"

    def since_restart(self, run: _Run) -> np.ndarray:
        since = self.since.get(run.cs)
        if since is None:
            since = np.minimum(_since_restart(run.seg_c), _MAX_HISTORY_BITS).astype(np.uint8)
            _read_only(since)
            since = self.since.setdefault(run.cs, since)
        return since

    def window(self, layout: Optional[_Layout], out_u8: np.ndarray, k: int) -> np.ndarray:
        """An outcome window of ``out_u8`` (``layout.out_s``, or the
        run's trace-order outcomes for None) at least ``k`` bits wide:
        the kept one, unless a longer history asks for a wider one,
        which replaces it."""
        window = self.windows.get(layout)
        bits, dtype = _window_type(k)
        if window is None or window.itemsize < np.dtype(dtype).itemsize:
            window = _outcome_window(out_u8, bits, dtype)
            _read_only(window)
            self.windows[layout] = window
        return window


def _window_type(k: int):
    """``(bits, dtype)`` of the narrowest memo window that serves a
    ``k``-bit history: 8 bits in ``uint8``, 16 in ``uint16``, else
    ``_MAX_HISTORY_BITS`` in int32."""
    if k <= 8:
        return 8, np.uint8
    if k <= 16:
        return 16, np.uint16
    return _MAX_HISTORY_BITS, np.int32


class _LayoutMemo:
    """The :class:`_TraceMemo` of the most recently simulated trace.

    ``current`` is ``(ref, memo)``: a weak reference to the trace's
    cached ``TraceArrays`` and its :class:`_TraceMemo`. A call on
    another arrays object replaces the pair, and the reference's
    callback clears it once the arrays are collected, so at most one
    trace's memo is alive and none outlives its trace (or the
    whole-trace run holding it).

    A set-associative layout the memo misses is rebuilt from the
    residency words on the arrays' ``residency`` dict, under the same
    key, and only a trace's first miss at a key replays the LRU to fill
    them. The words outlive the memo's pair: they die with the arrays.

    No lock: each call works on its own local reference to the pair,
    and every step on it is one atomic operation, so concurrent calls
    can at worst build a value twice or drop the other's pair.
    """

    __slots__ = ("current",)

    def __init__(self) -> None:
        self.current: Optional[tuple] = None

    def clear(self) -> None:
        self.current = None

    def _release(self, ref) -> None:
        current = self.current
        if current is not None and current[0] is ref:
            self.current = None

    def entry(self, arrays) -> _TraceMemo:
        """The memo of ``arrays``' trace, replacing any other trace's."""
        current = self.current
        if current is None or current[0]() is not arrays:
            pair = (weakref.ref(arrays, self._release), _TraceMemo())
            # Deliberate per-process memo, bounded to one trace.
            current = self.current = pair  # check: allow(conc/global-write-in-worker)
        return current[1]

    def layout(self, run: _Run, bht):
        """``(layout, source)``: the whole-trace layout and its
        :func:`_pa_layout` span source."""
        layouts = self.entry(run.arrays).layouts
        if isinstance(bht, IdealBHT):
            key = (None, None, run.cs)
        else:
            key = (bht.num_sets, bht.associativity, run.cs)
        layout = layouts.get(key)
        if layout is not None:
            return layout, "memo"
        layout, source = _whole_layout(run, bht, key)
        _read_only(*(getattr(layout, name) for name in _Layout.__slots__))
        return layouts.setdefault(key, layout), source


def _whole_layout(run: _Run, bht, key: tuple):
    """A memo miss: ``(layout, source)`` for the whole-trace layout at
    ``key``, set-associative ones rebuilt from residency words."""
    if not _set_associative(bht):
        return _build_layout(run, bht, None), "build"
    residency = run.arrays.residency
    words = residency.get(key)
    source = "words"
    if words is None:
        words = residency.setdefault(key, _residency_words(run, bht))
        source = "replay"
    return _words_layout(run, words), source


#: This process's memo (see "The per-trace memo" above).
_LAYOUT_MEMO = _LayoutMemo()


def _slot_carry(run: _Run, layout: _Layout, carry: Optional[_Keyed], **cols) -> _Keyed:
    """The BHT slots after the block: each slot's last access gives its
    occupant pc, flush stamp and recency, next to the scheme's own
    ``cols`` (one value per head). Ideal-BHT entries a flush has already
    invalidated can never be read again and are dropped."""
    at = layout.order[layout.lasts]
    # Recency and stamps leave the block, so they are int64 past any
    # block's indices and flush counts.
    slots = _upsert(carry, layout.hkey, pc=run.pc_c[at], stamp=run.seg_c[at].astype(np.int64),
                    rec=at.astype(np.int64) + run.t0, **cols)
    if layout.ideal:
        slots = slots.select(slots.cols["stamp"] == run.fires_end)
    return slots


def _pa_patterns(run: _Run, layout: _Layout, k: int, carry: Optional[_Keyed],
                 fill=None) -> np.ndarray:
    """Per-address history-register contents before each record.

    The register fills with the episode's first outcome on the first
    update and shifts afterwards, so before occurrence ``m >= 1`` it
    holds the last ``min(m, k)`` episode outcomes extended with the
    first outcome, which is bit ``m - 1`` of the outcome window; before
    occurrence 0 the predictors read the all-ones pattern a miss would
    be allocated with (a scalar ``fill``: a register that starts all
    ``fill`` and only shifts). A head continuing a carried entry resumes
    its carried register instead. A whole-trace run reads the window of
    its memoized layout from the trace's memo.
    """
    mask = (1 << k) - 1
    if run.memo is None:
        window = _outcome_window(layout.out_s, k)
    else:
        window = run.memo.window(layout, layout.out_s, k)
    patterns = _fill_extended(window, layout.m, fill, k)
    if fill is None:
        patterns[layout.m == 0] = mask
    if carry is not None:
        heads = layout.heads[layout.cont]
        regs = carry.get(layout.hkey[layout.cont], "reg")
        _splice(patterns, window, heads, _stretch(layout.m, heads, k), regs, k)
    return patterns


def _pa_registers_out(layout: _Layout, patterns_s: np.ndarray, k: int, fill=None) -> np.ndarray:
    """Each slot's register after its last update in the block: the
    pre-update pattern shifted once — unless that update allocated the
    entry under outcome extension (no ``fill``): ``history_fill``."""
    mask = (1 << k) - 1
    lasts = layout.lasts
    out = layout.out_s[lasts].astype(np.int64)
    shifted = ((patterns_s[lasts].astype(np.int64) << 1) | out) & mask
    return shifted if fill is not None else np.where(layout.ep_new[lasts], out * mask, shifted)


def _pa_registers(run: _Run, layout: _Layout, k: int, slots: Optional[_Keyed], fill=None):
    """``(patterns_s, slots)``: the layout's registers
    (:func:`_pa_patterns`) and the slots carried out (kept if final)."""
    patterns_s = _pa_patterns(run, layout, k, slots, fill)
    if not run.final:
        slots = _slot_carry(run, layout, slots,
                            reg=_pa_registers_out(layout, patterns_s, k, fill))
    return patterns_s, slots


def _pa_history(run: _Run, bht, k: int, slots: Optional[_Keyed], fill=None):
    """``(layout, patterns_s, slots)``: the slot layout, its registers
    (:func:`_pa_patterns`) and the slots carried out (kept if final)."""
    layout = _pa_layout(run, bht, slots)
    return (layout,) + _pa_registers(run, layout, k, slots, fill)


def _kernel_pag(predictor: PAgPredictor):
    ops = _ops_for(predictor.automaton)
    k = predictor.history_bits
    bht = predictor.bht

    def kernel(run: _Run, carry):
        slots, store = carry or (None, None)
        layout = _pa_layout(run, bht, slots)

        def keys():
            nonlocal slots
            patterns_s, slots = _pa_registers(run, layout, k, slots)
            return patterns_s

        result, store = _scan_keys(run, ops, keys, store, out=layout.out_s, base=layout.order)
        return result, (slots, store)

    return kernel


def _kernel_psg(predictor: PSgPredictor):
    bits = np.asarray(predictor.table.bits_snapshot(), dtype=np.bool_)
    k = predictor.history_bits
    bht = predictor.bht

    def kernel(run: _Run, slots):
        layout, patterns_s, slots = _pa_history(run, bht, k, slots)
        return layout.order[bits[patterns_s] != layout.out_s.view(np.bool_)], slots

    return kernel


def _kernel_pap(predictor: PApPredictor):
    ops = _ops_for(predictor.automaton)
    k = predictor.history_bits
    bht = predictor.bht
    reset_on_evict = predictor.config.reset_pht_on_evict

    def kernel(run: _Run, carry):
        slots, store, next_table = carry or (None, None, 0)
        layout = _pa_layout(run, bht, slots)
        # The slots' registers and tables after the block, and the
        # number of tables it added: read off the keys as they are built.
        tail = None

        def keys():
            nonlocal tail
            patterns_s = _pa_patterns(run, layout, k, slots)
            # Each slot's records open with a table: with the ideal BHT
            # every (segment, branch) episode opens a brand-new slot
            # whose table materialises in the initial state; otherwise a
            # slot's table persists across flushes and is reinitialised
            # only when a valid occupant is displaced (under the default
            # reset policy).
            ideal = isinstance(bht, IdealBHT)
            if ideal:
                new_table = layout.ep_new
            else:
                new_table = layout.blk_new | layout.evict if reset_on_evict else layout.blk_new
            resumed = None
            if slots is not None:
                # A head resumes its slot's carried table: the ideal
                # BHT's when it hits the carried entry, a practical
                # BHT's unless the head's own allocation resets it.
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
            # The keys ``table << k | pattern`` grow in one buffer, int32
            # while they fit.
            bound = next_table + int(np.count_nonzero(table_start))
            dtype = np.int32 if bound.bit_length() + k <= 31 else np.int64
            keys = _running_count(table_start, dtype)
            keys -= 1
            if resumed is None:
                added = int(keys[-1]) + 1
            else:
                fresh = new_table[table_start]
                added = int(np.count_nonzero(fresh))
                ids = np.empty(fresh.shape[0], dtype=dtype)
                ids[fresh] = next_table + np.arange(added)
                ids[keys[resumed[0]]] = resumed[1]
                keys = ids[keys]
            if not run.final:
                # Carried table ids are int64 whatever this block's keys.
                tail = (_pa_registers_out(layout, patterns_s, k),
                        keys[layout.lasts].astype(np.int64), added)
            keys <<= k
            keys |= patterns_s
            return keys

        result, store = _scan_keys(run, ops, keys, store, out=layout.out_s, base=layout.order)
        if run.final:
            return result, None
        regs, last_tables, added = tail
        slots = _slot_carry(run, layout, slots, reg=regs, table=last_tables)
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

def _perset_sort(run: _Run, num_sets: int):
    """``(order1, set_s, out_s)``: the conditional records in (set,
    time) order, their sets (the narrowest unsigned dtype) and
    outcomes."""
    sets = np.empty(run.n_c, dtype=np.min_scalar_type(num_sets - 1))
    np.remainder(_gathered_pcs(run) >> 2, num_sets, out=sets, casting="unsafe")
    order1 = _stable_argsort(sets)
    return order1, sets[order1], run.out_u8[order1]


def _perset_patterns(run: _Run, order1: np.ndarray, set_s: np.ndarray, out_s: np.ndarray,
                     k: int, carry: Optional[_Keyed]):
    """``(patterns_s, carry)`` for the per-set shift registers, in the
    (set, time) order of :func:`_perset_sort`.

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
    seg_s = run.seg_c[order1]
    set_new = _change_marks(set_s)
    ep_new = _change_marks(seg_s)
    ep_new |= set_new
    since = _since_start(ep_new)
    window = _outcome_window(out_s, k)
    patterns_s = _fill_extended(window, since, 1, k)
    if carry is None and run.final:
        return patterns_s, None
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
        carry = _upsert(carry, hset, stamp=seg_s[lasts].astype(np.int64), reg=regs)
    return patterns_s, carry


def _kernel_perset(ops: _AutomatonOps, k: int, num_sets: int, per_set_tables: bool):
    """SAg (one pattern table) and SAs (one per set, keyed ``set << k |
    pattern``); carries the per-set registers and the tables."""

    def kernel(run: _Run, carry):
        regs, store = carry or (None, None)
        order1, set_s, out_s = _perset_sort(run, num_sets)

        def keys():
            nonlocal regs
            patterns_s, regs = _perset_patterns(run, order1, set_s, out_s, k, regs)
            if not per_set_tables:
                return patterns_s
            keys = set_s.astype(np.int64)
            keys <<= k
            keys |= patterns_s
            return keys

        result, store = _scan_keys(run, ops, keys, store, out=out_s, base=order1)
        return result, (regs, store)

    return kernel


def _kernel_sag(predictor: SAgPredictor):
    return _kernel_perset(_ops_for(predictor.pht.automaton), predictor.history_bits,
                          predictor.num_sets, False)


def _kernel_sas(predictor: SAsPredictor):
    return _kernel_perset(_ops_for(predictor.tables[0].automaton), predictor.history_bits,
                          predictor.num_sets, True)


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
        # Both components' mispredicted records are needed even when
        # the outer run could aggregate.
        saved = run.aggregate
        run.aggregate = False
        try:
            wrong1, first = first_kernel(run, first)
            wrong2, second = second_kernel(run, second)
        finally:
            run.aggregate = saved
        miss1 = np.zeros(run.n_c, dtype=np.bool_)
        miss1[wrong1] = True
        miss2 = np.zeros(run.n_c, dtype=np.bool_)
        miss2[wrong2] = True
        both = np.flatnonzero(miss1 & miss2)
        # The components disagree exactly where one of them is wrong.
        d = np.flatnonzero(miss1 != miss2)
        if d.size == 0:
            return both, (first, second, choosers)
        # Choosers step only on disagreement, keyed by pc, and are never
        # flushed — one scan over the disagreement records with input
        # "second component was correct" (the first was wrong) finds
        # where the chooser picks the wrong component.
        order, grp_new, key_s, out_s = _group_sort(lambda: run.pc_c[d] & cmask,
                                                   miss1[d].view(np.uint8))
        picked_wrong, choosers = _scan_store(run, ops, key_s, out_s, grp_new, order, choosers,
                                             aggregate=False)
        return np.concatenate((both, d[picked_wrong])), (first, second, choosers)

    return kernel


# ----------------------------------------------------------------------
# Static schemes
# ----------------------------------------------------------------------

def _kernel_constant(direction: bool):
    def kernel(run: _Run, carry):
        return np.flatnonzero(run.out_bool != direction), None

    return kernel


def _kernel_btfn(predictor: BTFN):
    unknown = predictor.unknown_direction

    def kernel(run: _Run, carry):
        target_c = run.arrays.target[run.arrays.cond_mask]
        pred = np.where(target_c == 0, unknown, target_c < run.pc_c)
        return np.flatnonzero(pred != run.out_bool), None

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
        return np.flatnonzero(site_dirs[ids] != run.out_bool), None

    return kernel


# ----------------------------------------------------------------------
# Dispatch + public API
# ----------------------------------------------------------------------

def _kernel_for(predictor):
    """The kernel for ``predictor``, or None when unsupported.

    A kernel is ``kernel(run, carry) -> (outcome, carry)``: ``carry`` is
    None before the first block, and the outcome is a correct count
    (aggregate runs of the scanning kernels) or the block-local
    trace-order indices (int32 or int64) of the mispredicted conditional
    records, each once, in any order. Dispatch is on the *exact* type:
    a subclass may override predict or update semantics the kernels
    hard-code.
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


def _predictor_kernel(predictor):
    """:func:`_kernel_for`, raising :class:`KernelUnavailable` for None."""
    kernel = _kernel_for(predictor)
    if kernel is None:
        raise KernelUnavailable(
            f"no vectorized kernel for {getattr(predictor, 'name', type(predictor).__name__)}"
        )
    return kernel


def _kernel_blocks(kernel, blocks, context_switches: Optional[ContextSwitchConfig],
                   track_per_site: bool, warmup_branches: int, final: bool):
    """Fold ``kernel`` (see :func:`_kernel_for`) over ``blocks``,
    threading its carry, the warmup budget and the absolute context-switch epochs.

    Yields ``(run, outcome)`` for every non-empty block: ``outcome`` is
    the kernel's, or None for a block with no conditional record. With
    ``track_per_site`` a predictor's is always the block-local indices
    of the mispredicted conditional records.

    Raises:
        KernelUnavailable: when a block breaks a kernel precondition;
            possibly after earlier blocks were yielded.
    """
    warmup = max(int(warmup_branches), 0)
    cond_seen = 0
    prev_epoch: Optional[int] = None
    fires = 0
    last_instret: Optional[int] = None
    carry = None
    for block in blocks:
        if len(block) == 0:
            continue
        run = _Run(block, context_switches, track_per_site, max(warmup - cond_seen, 0),
                   prev_epoch=prev_epoch, fires_base=fires, t0=cond_seen, final=final,
                   memo=final)
        if context_switches is not None:
            first_instret = int(run.arrays.instret[0])
            if last_instret is not None and first_instret < last_instret:
                raise KernelUnavailable(
                    "instret decreases across blocks; the vectorized "
                    "context-switch model requires a non-decreasing clock"
                )
            last_instret = int(run.arrays.instret[-1])
            prev_epoch = run.last_epoch
        fires = run.fires_end
        outcome = None
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
        cond_seen += run.n_c
        yield run, outcome


def _fold(predictor, blocks, meta, context_switches: Optional[ContextSwitchConfig],
          track_per_site: bool, warmup_branches: int, final: bool) -> SimulationResult:
    """Score :func:`_kernel_blocks` into a :class:`SimulationResult`."""
    warmup = max(int(warmup_branches), 0)
    track = bool(track_per_site)
    correct = 0
    cond_seen = 0
    switches = 0
    per_seen: Optional[Dict[int, int]] = {} if track else None
    per_wrong: Optional[Dict[int, int]] = {} if track else None
    for run, outcome in _kernel_blocks(_predictor_kernel(predictor), blocks,
                                       context_switches, track, warmup, final):
        switches += run.switches
        cond_seen += run.n_c
        if outcome is None:
            continue
        if isinstance(outcome, (int, np.integer)):
            correct += int(outcome)
        else:
            block_correct, block_seen, block_wrong = _score_predictions(run, outcome)
            correct += block_correct
            if track:
                _add_counts(per_seen, block_seen)
                _add_counts(per_wrong, block_wrong)
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


def _source_blocks(source, block_size: Optional[int]):
    """``(blocks, final)``: a whole :class:`Trace` without ``block_size``
    is one final block, else ``iter_blocks``; ValueError if unbounded."""
    if block_size is not None and block_size < 1:
        raise ValueError("block_size must be >= 1")
    if getattr(source, "num_records", 0) is None:
        raise ValueError("cannot replay an unbounded trace source; bound it with .limit(n)")
    if block_size is None and isinstance(source, Trace):
        return (source,), True
    return source.iter_blocks(block_size or _DEFAULT_STREAM_BLOCK), False


def _source_tallies(kernel, source, block_size: Optional[int]):
    """``(records, tally)``: conditional records and last outcome (a running
    total, None without records) of ``kernel`` folded without context switches."""
    blocks, final = _source_blocks(source, block_size)
    records, tally = 0, None
    for run, outcome in _kernel_blocks(kernel, blocks, None, False, 0, final):
        records += run.n_c
        tally = tally if outcome is None else outcome
    return records, tally


def _history_bits(history_bits: int) -> int:
    """``history_bits``, or ValueError outside 1..``_MAX_HISTORY_BITS``."""
    if not 1 <= history_bits <= _MAX_HISTORY_BITS:
        raise ValueError(f"history_bits={history_bits} outside the kernels' 1..{_MAX_HISTORY_BITS}")
    return history_bits


def _add_counts(total: Dict[int, int], part: Dict[int, int]) -> None:
    """Add ``part``'s per-site counts into ``total`` (never aliasing it)."""
    if not total:
        total.update(part)
        return
    for pc, count in part.items():
        total[pc] = total.get(pc, 0) + count


def _score_predictions(run: _Run, wrong: np.ndarray):
    """Score a block from its mispredicted records' indices, honouring
    warmup and (optionally) collecting the per-site dictionaries: every
    scored record counts toward its site's executions, every scored
    index toward its site's mispredictions. A whole-trace run shares the
    executions dictionary through the trace's memo, so callers must not
    mutate it."""
    if run.warmup:
        wrong = wrong[wrong >= run.warmup]
    correct = max(run.n_c - run.warmup, 0) - int(wrong.shape[0])
    if not run.track_per_site:
        return correct, None, None
    sites, ids = run.arrays.conditional_site_ids()
    per_seen = None if run.memo is None else run.memo.seen.get(run.warmup)
    if per_seen is None:
        seen = np.bincount(ids[run.warmup:], minlength=sites.shape[0])
        per_seen = _site_counts(sites, seen)
        if run.memo is not None:
            per_seen = run.memo.seen.setdefault(run.warmup, per_seen)
    wrong = np.bincount(ids[wrong], minlength=sites.shape[0])
    return correct, per_seen, _site_counts(sites, wrong)


def _site_counts(sites: np.ndarray, counts: np.ndarray) -> Dict[int, int]:
    """pc -> count for every site with a nonzero count."""
    hit = np.flatnonzero(counts)
    return dict(zip(sites[hit].tolist(), counts[hit].tolist()))


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
    blocks, _final = _source_blocks(
        source, _DEFAULT_STREAM_BLOCK if block_size is None else block_size)
    # Span tracing of the streamed block loop: deferred import, None
    # unless tracing is on — the traced iterator wrapper only exists on
    # the traced path, so the default loop is byte-for-byte unchanged.
    from ..obs.spans import get_recorder as _get_span_recorder

    recorder = _get_span_recorder()
    if recorder is not None:
        blocks = _traced_blocks(blocks, recorder)
    return _fold(predictor, blocks, source.meta, context_switches,
                 track_per_site, warmup_branches, final=False)
