"""Shared fixtures: the SPEC-analog suite is generated once per session."""

import pytest
from hypothesis import settings

from repro.trace.cache import default_cache
from repro.workloads.suite import SuiteConfig, build_cases

# Example budgets for tests that pick a profile by ``HYPOTHESIS_PROFILE``
# (the kernel differential gate): a small, reproducible one by default,
# a larger randomised one for the CI gate.
settings.register_profile("tier1", max_examples=10, derandomize=True, deadline=None)
settings.register_profile("ci", max_examples=150, deadline=None)


@pytest.fixture(scope="session")
def suite_cases():
    """All nine benchmark cases at scale 1 (cached process-wide)."""
    return build_cases(SuiteConfig(), cache=default_cache())


@pytest.fixture(scope="session")
def small_cases():
    """A fast two-benchmark subset (one int, one fp) for figure tests."""
    return build_cases(
        SuiteConfig(benchmarks=["eqntott", "tomcatv"]), cache=default_cache()
    )
