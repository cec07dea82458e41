"""The six workloads, in the order they are run and reported."""

from .base import Stmt, Workload
from .league import WalkWhatif
from .serving import PointOps, ServingMixed
from .tpch import ConfHard, ConfSafe, CtransJoin

WORKLOADS = {
    cls.name: cls
    for cls in (CtransJoin, ConfSafe, ConfHard, WalkWhatif, ServingMixed, PointOps)
}

__all__ = ["WORKLOADS", "Stmt", "Workload"]
