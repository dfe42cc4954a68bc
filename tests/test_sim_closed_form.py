"""Closed-form pins: stationary accuracy on i.i.d. Bernoulli(p) outcomes.

The differential gates compare the repository with itself; these pins
compare it with arithmetic. On a single branch whose outcomes are i.i.d.
Bernoulli(p) (:func:`repro.trace.synthetic.biased_trace`, q = 1 - p):

* a 2-bit saturating counter (A2, the paper's Figure 2) is a birth-death
  chain stepping up with probability p, so its stationary distribution
  is pi_i proportional to (p/q)**i and it predicts correctly with
  probability p (pi_2 + pi_3) + q (pi_0 + pi_1);
* Last-Time predicts correctly when two outcomes agree: p**2 + q**2.

Every pattern entry of a history predictor sees the same i.i.d. stream,
so GAg and an ideal-BHT PAg match the formula of their pattern-table
automaton. A warmup skips the entries' transients, and the tolerance is
a conservative 5 binomial sigma at a fixed seed, since the per-entry
streams share records. Each scheme runs on both backends, whole and
block-wise, which must agree exactly.
"""

import math

import pytest

from repro.predictors.registry import make_predictor
from repro.sim import simulate
from repro.trace.synthetic import biased_trace

RECORDS = 50_000
WARMUP = 1_000
BLOCK = 257


def a2_accuracy(p: float) -> float:
    q = 1.0 - p
    pi = [(p / q) ** i for i in range(4)]
    return (p * (pi[2] + pi[3]) + q * (pi[0] + pi[1])) / sum(pi)


def last_time_accuracy(p: float) -> float:
    return p * p + (1.0 - p) ** 2


SCHEMES = {
    "btb-a2": a2_accuracy,
    "btb-lt": last_time_accuracy,
    "gag-6": a2_accuracy,
    "pag-6-ideal": a2_accuracy,
    "pag-6-lt-ideal": last_time_accuracy,
}


@pytest.fixture(scope="module", params=[0.6, 0.9], ids=["p0.6", "p0.9"])
def biased(request):
    p = request.param
    return p, biased_trace(RECORDS, p, seed=int(p * 10))


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_stationary_accuracy_matches_the_closed_form(scheme, biased):
    p, trace = biased
    results = {
        (backend, block_size): simulate(make_predictor(scheme), trace,
                                        warmup_branches=WARMUP, backend=backend,
                                        block_size=block_size)
        for backend in ("python", "vectorized")
        for block_size in (None, BLOCK)
    }
    result = results["python", None]
    assert all(other == result for other in results.values())
    assert result.conditional_branches == RECORDS - WARMUP
    want = SCHEMES[scheme](p)
    sigma = math.sqrt(want * (1.0 - want) / result.conditional_branches)
    assert abs(result.accuracy - want) <= 5 * sigma, (
        f"{scheme} at p={p}: {result.accuracy:.4f} vs {want:.4f} "
        f"({abs(result.accuracy - want) / sigma:.1f} sigma)")
