"""cProfile capture, for when span totals show *where* time goes but
not *why*.

Phase time itself is measured by spans (:mod:`repro.obs.spans`); the
:class:`~repro.obs.report.RunReport` timing section is their totals.
:func:`run_cprofile` wraps any callable and returns the top of its
cumulative-time profile as text — per-function call counts and times,
``predict`` / ``update`` included, without timing code on the per-record
path.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from typing import Callable, Tuple, TypeVar

__all__ = ["run_cprofile"]

T = TypeVar("T")


def run_cprofile(
    fn: Callable[[], T], top: int = 25, sort: str = "cumulative"
) -> Tuple[T, str]:
    """Run ``fn`` under :mod:`cProfile`; return (value, profile text).

    Args:
        fn: zero-argument callable to profile.
        top: number of rows of the stats table to keep.
        sort: pstats sort key (``"cumulative"``, ``"tottime"``, ...).
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        value = fn()
    finally:
        profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats(sort).print_stats(top)
    return value, buffer.getvalue()
