"""Test-suite settings shared by every module."""

from hypothesis import settings

# Derandomized Hypothesis: every run draws the same examples, so the suite
# gives the same result each time.  No deadline: timings vary by machine.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
