"""Exception hierarchy for the MayBMS reproduction.

All errors raised by the library derive from :class:`MayBMSError`, so a
caller can catch a single exception type at an API boundary.  The hierarchy
mirrors the stages of the system: catalog and storage errors come from the
relational substrate, parse/analysis errors from the SQL front-end, and
semantic errors from the probabilistic layer.
"""

from __future__ import annotations


class MayBMSError(Exception):
    """Base class for all errors raised by this library."""


class EngineError(MayBMSError):
    """Base class for errors raised by the relational engine substrate."""


class TypeMismatchError(EngineError):
    """An expression or comparison was applied to incompatible SQL types."""


class SchemaError(EngineError):
    """A schema is malformed, or a column reference cannot be resolved."""


class DuplicateColumnError(SchemaError):
    """Two columns in one schema share a (qualified) name."""


class UnknownColumnError(SchemaError):
    """A referenced column does not exist in the schema in scope."""


class AmbiguousColumnError(SchemaError):
    """An unqualified column name matches more than one column in scope."""


class CatalogError(EngineError):
    """A catalog operation failed (missing table, duplicate table, ...)."""


class TableNotFoundError(CatalogError):
    """The named table does not exist in the catalog."""


class TableExistsError(CatalogError):
    """A table with that name already exists in the catalog."""


class StorageError(EngineError):
    """A storage-level operation failed (bad tuple id, index violation)."""


class TransactionError(EngineError):
    """Illegal transaction state transition (commit without begin, ...)."""


class LockTimeout(TransactionError):
    """A table-lock (or store-gate) acquisition timed out.

    Subclasses :class:`TransactionError` so existing handlers keep
    working; raised distinctly so callers (and tests) can tell "a writer
    starved behind a long reader" apart from other transaction errors.
    MVCC read statements never hold table locks, so a saturated writer
    seeing this means writer-vs-writer contention, not analytics."""


class SanitizerError(EngineError):
    """The runtime concurrency sanitizer (``REPRO_SANITIZE=1``) detected a
    violation: a lock-order cycle, a lock held across fsync, or a pinned
    snapshot leak.  Raised eagerly under pytest;
    outside tests violations only increment stats counters."""


class DurabilityError(EngineError):
    """The on-disk log or checkpoint could not be written or read."""


class RecoveryError(DurabilityError):
    """Crash recovery failed (corrupt checkpoint, malformed WAL record)."""


class DegradedError(DurabilityError):
    """The durable store entered read-only **degraded mode** after an
    unrecoverable write failure: ENOSPC (or any I/O error) while
    committing a checkpoint, or repeated WAL append failures that
    survived the bounded retry-with-backoff.  The store stays
    consistent -- the previous checkpoint plus the WAL chain recover
    everything acknowledged -- and reads keep working; writes and
    checkpoints raise this until the store is reopened.  Surfaced as
    ``degraded`` / ``degraded_reason`` in durability stats."""


class FaultInjected(DurabilityError):
    """A :mod:`repro.faults` failpoint fired with the generic ``fault``
    action.  Only ever raised when fault injection is armed (tests and
    torture runs); production paths never construct it."""


class ExpressionError(EngineError):
    """An expression could not be evaluated (bad function, arity, ...)."""


class PlanError(EngineError):
    """A logical plan is malformed or cannot be compiled to physical ops."""


class SqlError(MayBMSError):
    """Base class for SQL front-end errors."""


class LexerError(SqlError):
    """The input text contains a token the lexer does not recognize."""

    def __init__(self, message: str, position: int, line: int, column: int):
        super().__init__(f"{message} at line {line}, column {column}")
        self.position = position
        self.line = line
        self.column = column


class ParseError(SqlError):
    """The token stream does not match the MayBMS SQL grammar."""


class AnalysisError(SqlError):
    """The query is grammatical but semantically invalid."""


class UncertainAggregateError(AnalysisError):
    """A standard SQL aggregate (sum, count, ...) was applied to an
    uncertain relation.  The paper forbids this: the aggregate would have
    exponentially many distinct answers across the possible worlds
    (Section 2.2).  Use ``esum``/``ecount`` or confidence computation."""


class UncertainDistinctError(AnalysisError):
    """``SELECT DISTINCT`` was applied to an uncertain relation; the paper
    only supports duplicate elimination on uncertain data through the
    ``possible`` construct (Section 2.2)."""


class ServingError(MayBMSError):
    """Base class for errors in the client/server serving layer."""


class ProtocolError(ServingError):
    """A wire-protocol message was malformed, oversized, or truncated."""


class ServerBusyError(ServingError):
    """The server refused work because it is over capacity: too many
    concurrent connections, or too many statements in flight
    (:class:`~repro.server.server.MayBMSServer` backpressure caps).  The
    refusal is a clean wire error: a rejected connection is closed right
    after the error is sent; a rejected statement leaves the connection
    -- and its open transaction -- intact, so the client can retry."""


class StatementTimeout(ServingError):
    """The server aborted a statement that ran past the configured
    statement timeout (``MayBMSServer(statement_timeout=...)`` /
    ``--statement-timeout``).  The statement's effects are rolled back
    (statement-level atomicity) and the session -- including an open
    explicit transaction -- stays intact, so the client can retry or
    roll back; over the wire it arrives as a clean error with this
    class name."""


class ServerError(ServingError):
    """A statement failed server-side; carries the original error type.

    Raised by the client when a response reports ``ok: false``.  The
    server-side exception class name is in :attr:`error_type` so callers
    can distinguish, say, an :class:`AnalysisError` from a
    :class:`TransactionError` without sharing exception identity across
    the wire."""

    def __init__(self, error_type: str, message: str):
        super().__init__(f"{error_type}: {message}")
        self.error_type = error_type
        self.server_message = message


class ProbabilisticError(MayBMSError):
    """Base class for errors in the probabilistic layer."""


class VariableError(ProbabilisticError):
    """A random variable is undefined or its distribution is invalid."""


class InvalidDistributionError(VariableError):
    """Probabilities are negative, or do not sum to one."""


class ConditionError(ProbabilisticError):
    """A condition (conjunction of atoms) is malformed."""


class RepairKeyError(ProbabilisticError):
    """``repair key`` failed: bad weights or an all-zero weight group."""


class PickTuplesError(ProbabilisticError):
    """``pick tuples`` failed: probability outside [0, 1]."""


class ConfidenceError(ProbabilisticError):
    """Confidence computation failed."""


class UnsafeQueryError(ConfidenceError):
    """A SPROUT safe plan was requested for a non-hierarchical query (the
    base of :class:`UnsafeLineageError`, the only form that is raised)."""


class UnsafeLineageError(UnsafeQueryError):
    """SPROUT-style safe evaluation was attempted on a lineage that is not
    hierarchical (some connected clause component has no root variable).
    ``aconf()`` under ``auto`` catches it and falls back to Monte Carlo."""


class CostBudgetExceededError(ConfidenceError):
    """The exact engine exceeded its subproblem budget.  The dispatcher
    catches this and falls back to Monte Carlo estimation."""
