"""Hypothesis profiles and a wall-time bound for the test suite.

The default profile is hypothesis's own, which the tier-1 run uses.
``HYPOTHESIS_PROFILE=large`` selects ten times as many examples and no
deadline, for a longer run of the property tests at large operand
sizes:

    HYPOTHESIS_PROFILE=large python -m pytest tests/test_gl2.py

A test that caps its examples to bound the tier-1 time states the cap
as a share of the profile's ``max_examples``, so it grows too.

On POSIX each test gets WALL_TIME_S seconds of wall time (60, or 600
under the large profile), so a library loop that never ends fails its
test instead of hanging the run.  The slowest test takes a few seconds.

``HEISAUT_CHECK_OF=1`` enables the plugin in checked_of.py: every value
the library builds unchecked, with ``_of``, is checked as the
constructor would check it, and the tests marked ``unchecked_of``, which
assert that ``_of`` skips that check, are deselected.
"""

import os
import signal

import pytest
from hypothesis import settings

PROFILE = os.environ.get("HYPOTHESIS_PROFILE", "default")

settings.register_profile(
    "large", max_examples=10 * settings.default.max_examples, deadline=None)
settings.load_profile(PROFILE)

WALL_TIME_S = 600 if PROFILE == "large" else 60


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "unchecked_of: asserts that _of skips __post_init__; "
        "deselected under HEISAUT_CHECK_OF=1")
    if os.environ.get("HEISAUT_CHECK_OF") == "1":
        import checked_of

        config.pluginmanager.register(checked_of, "checked_of")


class WallTimeExceeded(BaseException):
    # not an Exception: hypothesis then reports it at once instead of
    # shrinking by replaying examples that hang, and no `except Exception`
    # in the library or a test swallows it
    pass


if hasattr(signal, "SIGALRM"):
    @pytest.fixture(autouse=True)
    def _wall_time_bound(request):
        def expire(signum, frame):
            raise WallTimeExceeded(
                f"{request.node.nodeid} ran over {WALL_TIME_S} s of wall time")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(WALL_TIME_S)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
