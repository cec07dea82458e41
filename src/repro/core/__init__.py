"""The probabilistic layer: MayBMS's primary contribution.

U-relational databases (Section 2.1), the uncertainty-aware query
constructs (Section 2.2), the parsimonious translation of positive
relational algebra (Section 2.3), and the confidence computation engines
(:mod:`repro.core.confidence`).
"""

from repro.core.variables import VariableRegistry, TOP_VARIABLE
from repro.core.lineage import Atom
from repro.core.urelation import URelation
from repro.core.repair_key import repair_key
from repro.core.pick_tuples import pick_tuples

__all__ = [
    "VariableRegistry",
    "TOP_VARIABLE",
    "Atom",
    "URelation",
    "repair_key",
    "pick_tuples",
]
