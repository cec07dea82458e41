"""MayBMS reproduction: a probabilistic database management system.

This package reproduces "MayBMS: A Probabilistic Database Management
System" (Huang, Antova, Koch, Olteanu -- SIGMOD 2009): U-relational
databases, the uncertainty-aware SQL dialect (``repair key``,
``pick tuples``, ``conf``, ``aconf``, ``tconf``, ``possible``, ``esum``,
``ecount``, ``argmax``), the parsimonious translation of positive
relational algebra, exact confidence computation (Koch-Olteanu), the
Karp-Luby / Dagum-Karp-Luby-Ross approximation, and SPROUT safe plans --
all on top of a pure-Python relational engine substrate.

Quickstart::

    from repro import MayBMS

    db = MayBMS()
    db.execute("create table coin (face text, weight float)")
    db.execute("insert into coin values ('heads', 0.5), ('tails', 0.5)")
    flips = db.query('''
        select face, conf() as p
        from (repair key in coin weight by weight) f
        group by face
    ''')
    print(flips.pretty())
"""

from repro.db import MayBMS
from repro.core.urelation import URelation
from repro.core.variables import VariableRegistry
from repro.core.lineage import Atom
from repro.core.repair_key import repair_key
from repro.core.pick_tuples import pick_tuples
from repro.engine.relation import Relation
from repro.engine.schema import Column, Schema
from repro.engine.types import BOOLEAN, FLOAT, INTEGER, TEXT
from repro.errors import MayBMSError

__version__ = "1.0.0"

__all__ = [
    "MayBMS",
    "URelation",
    "VariableRegistry",
    "Atom",
    "repair_key",
    "pick_tuples",
    "Relation",
    "Column",
    "Schema",
    "INTEGER",
    "FLOAT",
    "TEXT",
    "BOOLEAN",
    "MayBMSError",
    "__version__",
]
