"""Static branch prediction schemes (paper §4.2, Figure 11 baselines).

* :class:`AlwaysTaken` / :class:`AlwaysNotTaken` — fixed direction.
* :class:`BTFN` — Backward Taken, Forward Not taken: predict from the
  code layout; effective for loop-bound programs (one miss per loop).
* :class:`ProfileGuided` — per-static-branch majority direction measured
  on a *training* run, frozen at test time (the paper's "profiling
  scheme", ~91 % in Figure 11).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

from ..trace.events import Trace
from ..trace.stats import column_blocks, site_tally
from .base import BranchPredictor


class AlwaysTaken(BranchPredictor):
    """Predict taken for every branch (~62.5 % in the paper)."""

    name = "AlwaysTaken"

    def predict(self, pc: int, target: int = 0) -> bool:
        return True

    def update(self, pc: int, taken: bool, target: int = 0) -> None:
        pass


class AlwaysNotTaken(BranchPredictor):
    """Predict not taken for every branch (the fall-through guess)."""

    name = "AlwaysNotTaken"

    def predict(self, pc: int, target: int = 0) -> bool:
        return False

    def update(self, pc: int, taken: bool, target: int = 0) -> None:
        pass


class BTFN(BranchPredictor):
    """Backward Taken, Forward Not taken (~68.5 % in the paper).

    A branch whose target precedes it in the address space is treated as
    a loop back-edge and predicted taken; forward branches are predicted
    not taken. Branches with no recorded target (``target == 0``) fall
    back to ``unknown_direction``.
    """

    def __init__(self, unknown_direction: bool = True) -> None:
        self.unknown_direction = unknown_direction
        self.name = "BTFN"

    def predict(self, pc: int, target: int = 0) -> bool:
        if target == 0:
            return self.unknown_direction
        return target < pc

    def update(self, pc: int, taken: bool, target: int = 0) -> None:
        pass


class ProfileGuided(BranchPredictor):
    """Per-branch majority direction from a profiling run.

    Branches never seen in training are predicted with
    ``default_direction`` (taken by default, consistent with the rest of
    the study's taken bias).
    """

    def __init__(
        self,
        directions: Mapping[int, bool],
        default_direction: bool = True,
        name: Optional[str] = None,
    ) -> None:
        self._directions = dict(directions)
        self.default_direction = default_direction
        self.name = name or "Profile"

    @classmethod
    def trained_on(cls, trace: Trace, default_direction: bool = True) -> "ProfileGuided":
        """Profile ``trace`` and freeze each branch's majority direction."""
        return cls(profile_directions(trace), default_direction)

    def predict(self, pc: int, target: int = 0) -> bool:
        return self._directions.get(pc, self.default_direction)

    def update(self, pc: int, taken: bool, target: int = 0) -> None:
        pass

    def directions_snapshot(self) -> Dict[int, bool]:
        """A copy of the frozen pc -> direction profile (kernels/tests)."""
        return dict(self._directions)

    @property
    def num_profiled_branches(self) -> int:
        return len(self._directions)


def profile_directions(trace: Trace) -> Dict[int, bool]:
    """Majority taken-direction per static conditional branch, from the
    per-site tally of :func:`repro.trace.stats.site_tally`.

    Ties resolve to taken. An in-memory trace tallies its cached
    :meth:`Trace.as_arrays` (which Static Training's presets reuse);
    a streamed source is tallied block by block.
    """
    sites, taken, total = site_tally(column_blocks(trace))
    return dict(zip(sites.tolist(), (taken * 2 >= total).tolist()))
