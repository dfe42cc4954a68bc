"""The probed interpreted loop that the engine's single loop absorbed.

``simulate`` once ran probed runs through a second copy of its
interpreted loop, ``_simulate_probed``. It is kept verbatim here, with
the block-wise record iterator it read, as the oracle for
``tests/test_engine_probe_oracle.py``.
"""

from itertools import chain
from typing import Dict, Optional

from repro.predictors.base import BranchPredictor
from repro.sim.engine import ContextSwitchConfig
from repro.sim.results import SimulationResult
from repro.trace.events import BranchClass


def _record_tuples(trace, block_size: Optional[int]):
    """Plain tuples, optionally consumed block-wise."""
    if block_size is None:
        return trace.iter_tuples()
    return chain.from_iterable(
        block.iter_tuples() for block in trace.iter_blocks(block_size)
    )


def _simulate_probed(
    predictor: BranchPredictor,
    trace,
    probe,
    context_switches: Optional[ContextSwitchConfig] = None,
    track_per_site: bool = False,
    warmup_branches: int = 0,
    block_size: Optional[int] = None,
) -> SimulationResult:
    """The probed twin of :func:`simulate`.

    Identical simulation semantics — every branch is predicted, updated
    and scored in exactly the same order with exactly the same state —
    plus the probe callbacks:

    * ``on_run_start(predictor, trace)`` before the first record;
    * ``on_branch(pc, predicted, taken, instret)`` after each
      conditional branch resolves (warm-up branches included);
    * ``on_context_switch(instret)`` after each history flush;
    * ``on_interval(index, instret)`` each time the instruction clock
      crosses a multiple of ``probe.interval_instructions`` (skipped
      entirely when that attribute is ``None``);
    * ``on_run_end(result)`` with the final result.
    """
    conditional = 0
    correct = 0
    switches = 0
    per_site_seen: Dict[int, int] = {}
    per_site_wrong: Dict[int, int] = {}

    cs_enabled = context_switches is not None
    interval = context_switches.interval if cs_enabled else 0
    switch_on_traps = context_switches.switch_on_traps if cs_enabled else False
    next_switch = interval

    predict = predictor.predict
    update = predictor.update
    cond_class = int(BranchClass.CONDITIONAL)

    probe.on_run_start(predictor, trace)
    on_branch = probe.on_branch
    on_context_switch = probe.on_context_switch
    on_interval = probe.on_interval
    window = getattr(probe, "interval_instructions", None)
    next_window = window if window else 0
    window_index = 0

    for pc, taken, cls, target, instret, trap in _record_tuples(trace, block_size):
        if cs_enabled and ((trap and switch_on_traps) or instret >= next_switch):
            predictor.on_context_switch()
            switches += 1
            if instret >= next_switch:
                # Absolute interval boundaries — see the plain loop.
                next_switch += interval * ((instret - next_switch) // interval + 1)
            on_context_switch(instret)
        if cls == cond_class:
            prediction = predict(pc, target)
            update(pc, taken, target)
            conditional += 1
            on_branch(pc, prediction, taken, instret)
            if conditional > warmup_branches:
                if prediction == taken:
                    correct += 1
                elif track_per_site:
                    per_site_wrong[pc] = per_site_wrong.get(pc, 0) + 1
                if track_per_site:
                    per_site_seen[pc] = per_site_seen.get(pc, 0) + 1
        if window and instret >= next_window:
            while instret >= next_window:
                next_window += window
                window_index += 1
            on_interval(window_index - 1, instret)

    scored = max(conditional - warmup_branches, 0)
    result = SimulationResult(
        predictor_name=predictor.name,
        trace_name=trace.meta.name,
        dataset=trace.meta.dataset,
        conditional_branches=scored,
        correct_predictions=correct,
        context_switches=switches,
        per_site_executions=per_site_seen if track_per_site else None,
        per_site_mispredictions=per_site_wrong if track_per_site else None,
        total_instructions=trace.meta.total_instructions,
    )
    probe.on_run_end(result)
    return result
