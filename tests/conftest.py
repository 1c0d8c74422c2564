"""Hypothesis profiles for the test suite.

The default profile is hypothesis's own, which the tier-1 run uses.
``HYPOTHESIS_PROFILE=large`` selects ten times as many examples and no
deadline, for a longer run of the property tests at large operand
sizes:

    HYPOTHESIS_PROFILE=large python -m pytest tests/test_gl2.py

A test that caps its examples to bound the tier-1 time states the cap
as a share of the profile's ``max_examples``, so it grows too.
"""

import os

from hypothesis import settings

settings.register_profile(
    "large", max_examples=10 * settings.default.max_examples, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
