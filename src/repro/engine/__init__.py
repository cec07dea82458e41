"""Relational engine substrate (the PostgreSQL stand-in).

MayBMS is implemented *inside* PostgreSQL: its U-relations are ordinary
tables of integers and floats, and its query constructs compile down to
ordinary relational plans.  This subpackage provides the equivalent
substrate in pure Python:

- :mod:`repro.engine.types` -- SQL type system with NULLs and 3VL,
- :mod:`repro.engine.schema` -- columns and schemas,
- :mod:`repro.engine.relation` -- in-memory multiset relations,
- :mod:`repro.engine.expressions` -- scalar expression AST and evaluator,
- :mod:`repro.engine.algebra` -- logical plan nodes,
- :mod:`repro.engine.physical` -- iterator-model physical operators,
- :mod:`repro.engine.planner` -- logical-to-physical planning,
- :mod:`repro.engine.catalog` -- the system catalog,
- :mod:`repro.engine.storage` -- base tables and MVCC read snapshots,
- :mod:`repro.engine.transactions` -- undo log, locks, write-ahead log,
- :mod:`repro.engine.durability` / :mod:`repro.engine.segments` -- the
  on-disk WAL and columnar checkpoints.
"""

from repro.engine.types import (
    SqlType,
    INTEGER,
    FLOAT,
    TEXT,
    BOOLEAN,
    NULL,
    type_of_literal,
)
from repro.engine.schema import Column, Schema
from repro.engine.relation import Relation

__all__ = [
    "SqlType",
    "INTEGER",
    "FLOAT",
    "TEXT",
    "BOOLEAN",
    "NULL",
    "type_of_literal",
    "Column",
    "Schema",
    "Relation",
]
