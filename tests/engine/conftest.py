"""Fixtures shared by the engine tests."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest


@pytest.fixture
def in_parallel():
    """``run(workers, task)``: ``task(i)`` for every ``i < workers``, each on
    its own thread, all released together by a barrier so they overlap.
    Returns the results in order of ``i``; the first error is raised."""

    def run(workers, task):
        barrier = threading.Barrier(workers)

        def start(i):
            barrier.wait(timeout=30)
            return task(i)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(start, i) for i in range(workers)]
            return [future.result(timeout=120) for future in futures]

    return run
