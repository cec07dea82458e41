"""Repo-wide fixtures.

When the suite runs with ``REPRO_SANITIZE=1`` (the CI sanitizer job), every
test is followed by a cleanliness assertion: any violation the runtime
concurrency sanitizer recorded during the test -- lock-order cycles, locks
held across fsync, pin leaks -- fails the test even if the violating code
path did not raise inline (logical LockManager notes are record-only by
design).
"""

import os

import pytest


@pytest.fixture(autouse=True)
def _sanitizer_guard():
    yield
    from repro.engine.sanitizer import get_sanitizer

    sanitizer = get_sanitizer()
    if sanitizer is not None:
        sanitizer.assert_clean()


@pytest.fixture(autouse=True)
def _faults_guard():
    """The fault registry is process-global; never let an armed failpoint
    leak from one test into the next (unless the whole run was armed via
    REPRO_FAULTS, which the chaos job does deliberately)."""
    yield
    if not os.environ.get("REPRO_FAULTS"):
        from repro import faults

        faults.disarm()
