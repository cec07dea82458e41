"""Reference implementations the tests check the system against.

:mod:`reference.row_engine` evaluates logical plans one row at a time,
with none of the executor's machinery.  :func:`running_on` puts a block
of code on it: under ``"row"`` every plan that :func:`planner.run
<repro.engine.planner.run>` would execute goes to the reference instead,
so a whole SQL statement -- parser, translation, confidence -- can be
answered by both and compared.

:mod:`reference.constructs` is the row-at-a-time ``repair key`` and
``pick tuples`` that the constructs' array passes are checked against.

:mod:`reference.confidence` decodes each row's condition on its own and
runs the ``conf()`` dispatch that the clause path of the confidence
dispatcher is checked against, on the frozen ws-tree recursion of
:mod:`reference.ws_tree`.  :mod:`reference.worlds` enumerates the
possible worlds, and :mod:`reference.naive` computes confidence from them
and by inclusion-exclusion: the exponential oracles.
"""

from contextlib import contextmanager
from typing import Iterator

from repro.engine import planner

from . import row_engine

#: The parametrisation ids of the two ways to run a plan.
ENGINES = ("row", "batch")


@contextmanager
def running_on(engine: str) -> Iterator[None]:
    """Run every plan in the block on the reference row evaluator
    (``"row"``) or on the executor (``"batch"``)."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    if engine == "batch":
        yield
        return
    executor = planner.run
    planner.run = row_engine.run
    try:
        yield
    finally:
        planner.run = executor
