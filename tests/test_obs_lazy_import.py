"""``repro.obs`` imports its submodules on first use.

Every kernel call checks for a span recorder through
``repro.obs.spans``; importing that module runs the package's
``__init__``, which must not pull in the ledger, the Prometheus
renderer, the profiler (``cProfile``, ``pstats``) and the rest. The
public names and ``__all__`` stay as they were.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro.obs as obs

SRC = str(Path(__file__).resolve().parents[1] / "src")

HEAVY = ("cProfile", "pstats", "decimal", "statistics", "repro.obs.ledger",
         "repro.obs.prom", "repro.obs.profile", "repro.obs.runner")

SCRIPT = f"""
import sys
from repro.predictors.registry import make_predictor
from repro.sim import simulate
from repro.trace.synthetic import loop_trace

trace = loop_trace(trip_count=7, iterations=300)
before = set(sys.modules)
result = simulate(make_predictor("gag-8"), trace, backend="vectorized")
assert result.conditional_branches > 0
loaded = sorted(set(sys.modules) - before)
print(" ".join(loaded))
heavy = [name for name in {HEAVY!r} if name in sys.modules]
assert not heavy, heavy
"""


def test_one_simulate_call_imports_no_profiler():
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "repro.obs.spans" in loaded
    assert not [name for name in loaded if name in HEAVY]


def test_every_public_name_resolves():
    for name in obs.__all__:
        assert getattr(obs, name) is not None, name
    assert set(obs.__all__) <= set(dir(obs))
    from repro.obs import RunLedger, observe, run_cprofile  # noqa: F401
    from repro.obs.ledger import RunLedger as direct

    assert RunLedger is direct


def test_an_unknown_name_is_an_attribute_error():
    try:
        obs.no_such_name
    except AttributeError as error:
        assert "no_such_name" in str(error)
    else:
        raise AssertionError("obs.no_such_name resolved")
