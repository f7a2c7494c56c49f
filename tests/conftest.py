"""Shared test settings.

``HYPOTHESIS_PROFILE=ci`` selects a deterministic hypothesis profile: the
examples derive from each test rather than from a random seed, so a failure
reproduces, their number is fixed, and no example has a deadline, so an
exact solve on a slow machine cannot fail on time.  Without hypothesis the
property tests skip and this file still loads.
"""

import os

try:
    from hypothesis import settings
except ImportError:
    settings = None

if settings is not None:
    settings.register_profile("ci", derandomize=True, deadline=None, max_examples=100)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
