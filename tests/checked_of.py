"""Checked mode: every unchecked build also runs its class's check.

The library builds a value with a class's generated ``_of`` only where
the value is valid by construction, and skips ``__post_init__`` there.
``check_every_of()`` wraps each generated ``_of`` so that it runs
``__post_init__`` on the value it built: a build that the constructor
would reject then raises the constructor's own error at the ``_of``
call.  The library itself gains no switch.

As a pytest plugin, enabled by ``HEISAUT_CHECK_OF=1`` (see conftest.py),
it applies the wrap before any test runs and deselects the tests marked
``unchecked_of``, which assert that ``_of`` skips the hook:

    HEISAUT_CHECK_OF=1 python -m pytest -q

``tools/checked_verify.py`` applies the same wrap to a verify run.
"""

from heisaut import aut, cocycles, gl2, heis, verify, zlattice  # noqa: F401


def _checked(build):
    def _of(cls, *args, **kwargs):
        value = build(cls, *args, **kwargs)
        value.__post_init__()
        return value

    return _of


def check_every_of() -> None:
    # the value classes of every module, found from the base down
    classes = [heis._Value]
    for cls in classes:
        classes += cls.__subclasses__()
        if "_of" in vars(cls):
            cls._of = classmethod(_checked(vars(cls)["_of"].__func__))


def pytest_configure(config):
    check_every_of()


def pytest_collection_modifyitems(config, items):
    kept, skipped = [], []
    for item in items:
        (skipped if item.get_closest_marker("unchecked_of") else kept).append(item)
    if skipped:
        config.hook.pytest_deselected(items=skipped)
        items[:] = kept
