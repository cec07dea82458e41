"""What a workload is: data to load, a seeded statement stream per
connection, and checks on what the server answers."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from ..datasets import Scale


@dataclass
class Stmt:
    """One request.  ``sql`` is what the server sees (``None`` sends a
    ``ping``); ``kind`` names the statement class for per-class latency;
    ``check`` gets the ``ClientResult`` (outside the timed region) and
    returns whether the answer is right; ``commit`` marks statements that
    return only once a WAL append is durable."""

    kind: str
    sql: Optional[str]
    check: Optional[Callable[[Any], bool]] = None
    commit: bool = False


class Workload:
    name = ""
    why = ""
    #: Client connections, each driven in a closed loop by its own thread.
    connections = 1
    #: Rounds each connection runs before the measured window opens.
    warmup_rounds = 1
    #: Extra environment of the server process (failpoints).
    server_env: Dict[str, str] = {}
    #: Which of the optional end-to-end metrics this workload reports.
    reports: Tuple[str, ...] = ()
    #: Rounds each connection measures at least, however short the window:
    #: a percentile is reported only with ten samples beyond it, so
    #: ``latency_p90_ms`` needs 100 statements (ISSUE 11 sizes to 110) and
    #: the p99s need 1000 (ISSUE 11: 1100) of theirs.
    min_rounds = 0

    def __init__(self, seed: int, scale: Scale):
        self.seed = seed
        self.scale = scale

    def rng(self, *salt: Any) -> random.Random:
        """A stream-private RNG: the same (seed, salt) gives the same draws
        no matter what else consumed random numbers."""
        return random.Random(f"{self.name}/{self.seed}/{salt}")

    def generate(self) -> None:
        """Generate the dataset from the seed (part of set-up time)."""

    def load(self, db) -> None:
        """Load the generated data into a fresh durable store."""
        raise NotImplementedError

    def rounds(self, conn: int) -> Iterator[List[Stmt]]:
        """The endless statement stream of connection ``conn``, one round
        (a fixed mix of statement classes) at a time."""
        raise NotImplementedError

    def finish(self, run) -> Dict[str, float]:
        """Workload-specific metrics and late checks, after the window."""
        return {}


def close(a: float, b: float, tolerance: float = 1e-9) -> bool:
    return abs(a - b) <= tolerance * max(1.0, abs(a), abs(b))


def stratified(rng: random.Random, low: float, high: float, count: int) -> List[float]:
    """``count`` draws, one from each equal slice of [low, high): the same
    coverage of the range under every seed, so seeds differ in the exact
    values but not in how much work a round is."""
    width = (high - low) / count
    return [low + (i + rng.random()) * width for i in range(count)]
