"""Trace transformations.

Utilities for slicing and reshaping traces — the operations a
measurement methodology needs around the raw streams: windowing (skip
initialisation, take a sample), filtering to a branch subset, splitting
by phase, and merging program fragments.

All transforms return new :class:`~repro.trace.events.Trace` objects;
``instret`` columns are preserved verbatim for windowed views (so the
context-switch clock stays meaningful relative to the original run)
and recomputed for merges. Windows, phases and the warm-up cut are
views of the trace's arrays; the filters compute their record indices
on the arrays too, so none of them builds the trace's Python lists.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Sequence

import numpy as np

from .events import BranchClass, Trace, TraceBuilder


def window(trace: Trace, start: int, count: int) -> Trace:
    """Records ``start .. start+count`` (clamped), instret preserved."""
    if start < 0 or count < 0:
        raise ValueError("start and count must be non-negative")
    return trace.select(slice(start, start + count))


def skip_warmup(trace: Trace, conditional_branches: int) -> Trace:
    """Drop the prefix containing the first N conditional branches.

    Useful for steady-state measurements: the paper measures from cold
    start, but sensitivity studies want warm caches.
    """
    if conditional_branches < 0:
        raise ValueError("conditional_branches must be non-negative")
    conditional = np.flatnonzero(trace.as_arrays().cond_mask)
    cut = conditional[conditional_branches] if conditional_branches < len(conditional) else len(trace)
    return trace.select(slice(int(cut), None))


def filter_sites(trace: Trace, sites: Iterable[int], keep: bool = True) -> Trace:
    """Keep (or drop) the conditional branches of the given static sites.

    Non-conditional records are always kept: they carry the instruction
    clock and context-switch markers.
    """
    arrays = trace.as_arrays()
    listed = np.isin(arrays.pc, list(set(sites)))
    return trace.select(np.flatnonzero(~arrays.cond_mask | (listed == keep)))


def split_phases(trace: Trace, phases: int) -> List[Trace]:
    """Cut the trace into ``phases`` equal consecutive pieces."""
    if phases < 1:
        raise ValueError("phases must be >= 1")
    starts = range(0, len(trace), max(len(trace) // phases, 1))[:phases]
    # The final phase runs to the end, folding in any remainder.
    stops = [*starts[1:], None]
    return [trace.select(slice(start, stop)) for start, stop in zip(starts, stops)]


def merge(traces: Sequence[Trace], name: str = "merged") -> Trace:
    """Concatenate traces end-to-end, rebasing the instruction clock."""
    builder = TraceBuilder(name=name, source="transform")
    for piece in traces:
        previous = 0
        for pc, taken, cls, target, instret, trap in piece.iter_tuples():
            gap = max(instret - previous - 1, 0)
            previous = instret
            if trap:
                builder.trap()
            builder.branch(pc, taken, BranchClass(cls), target=target, work=gap)
    return builder.build()


def subsample_sites(
    trace: Trace,
    predicate: Callable[[int], bool],
) -> Trace:
    """Keep conditional branches whose pc satisfies ``predicate``.

    A generalisation of :func:`filter_sites` for programmatic slicing,
    e.g. ``subsample_sites(trace, lambda pc: pc % 2 == 0)`` to study
    set-interference.
    """
    arrays = trace.as_arrays()
    sites, site_ids = arrays.conditional_site_ids()
    chosen = np.array([bool(predicate(pc)) for pc in sites.tolist()], dtype=np.bool_)
    keep = ~arrays.cond_mask
    keep[arrays.cond_mask] = chosen[site_ids]
    return trace.select(np.flatnonzero(keep))
