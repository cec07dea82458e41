"""Expression compilation for the executor: position-based column kernels.

A *kernel* maps ``(columns, n)`` -- the input batch's columns and row
count -- to one output column of length ``n``.  Compared to per-row
closures (:meth:`repro.engine.expressions.Expr.compile`), a kernel is
compiled **once per pipeline** and then amortizes all per-node Python
dispatch over a whole batch: a comparison is one list comprehension
instead of ``n`` nested closure calls through ``compare_values``.

Semantics are those of the per-row evaluator:

- SQL three-valued logic: boolean kernels produce columns of Python
  ``True`` / ``False`` / ``None`` (NULL);
- comparisons use the same total ordering as ``compare_values``
  (including its NaN behaviour, via the ``not (a <= b)`` formulation);
- short-circuiting contexts (AND/OR over operands that can raise, CASE,
  IN) fall back to the per-row evaluator applied row-wise, so a guarded
  ``b <> 0 AND a / b > 1`` never divides by zero.

The :class:`~repro.engine.expressions.ConsistencyPredicate` -- the join
consistency filter of the parsimonious translation, the hottest loop in
translated query plans -- gets a dedicated kernel that runs on NumPy
over the integer condition columns.

Numeric comparisons over whole base columns have a second, vectorized
form: :func:`compile_vector_filter` turns the comparison conjuncts of a
scan predicate into array kernels over the relation's typed mirrors
(:meth:`repro.engine.relation.Relation.mirror`).  Mirrors are NULL-free,
so those kernels are two-valued and yield a plain boolean mask.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine import columnar
from repro.engine.expressions import (
    Arithmetic,
    Between,
    BoolOp,
    ColumnRef,
    Comparison,
    ConsistencyPredicate,
    Expr,
    IsNull,
    Literal,
    Negate,
    Not,
    PositionRef,
    conjunction,
    conjuncts_of,
)
from repro.engine.relation import Relation
from repro.engine.schema import Schema
from repro.engine.types import FLOAT, INTEGER, and3, not3, or3
from repro.errors import ExpressionError, MayBMSError

#: A compiled column kernel: (input columns, row count) -> output column.
Kernel = Callable[[Sequence[Sequence[Any]], int], Sequence[Any]]

#: Below this batch size the NumPy conversion overhead outweighs the win:
#: smaller inputs take the Python kernels.
_NUMPY_MIN_ROWS = 16


def compile_kernel(expr: Expr, schema: Schema) -> Kernel:
    """Compile an expression into a column kernel over ``schema``.

    Never fails on expression shape: anything without a specialized
    columnar form falls back to the per-row evaluator applied row-wise.
    """
    try:
        return _compile(expr, schema)
    except MayBMSError:
        # Type information unavailable or unsupported shape: evaluate
        # row-wise through the (already correct) row compiler.
        return _row_fallback(expr, schema)


def _row_fallback(expr: Expr, schema: Schema) -> Kernel:
    evaluate = expr.compile(schema)

    def run(columns: Sequence[Sequence[Any]], n: int) -> List[Any]:
        if not columns:
            empty = ()
            return [evaluate(empty) for _ in range(n)]
        return [evaluate(row) for row in zip(*columns)]

    return run


def _eager_safe(expr: Expr) -> bool:
    """Can this expression be evaluated eagerly on *all* rows without
    changing semantics?  False for anything that can raise (division,
    casts, scalar functions) or that the per-row evaluator evaluates
    lazily (CASE branches, IN item lists)."""
    if isinstance(expr, (Literal, ColumnRef, PositionRef, ConsistencyPredicate)):
        return True
    if isinstance(expr, Comparison):
        return _eager_safe(expr.left) and _eager_safe(expr.right)
    if isinstance(expr, BoolOp):
        return all(_eager_safe(o) for o in expr.operands)
    if isinstance(expr, (Not, IsNull)):
        return _eager_safe(expr.operand)
    if isinstance(expr, Negate):
        return _eager_safe(expr.operand)
    if isinstance(expr, Between):
        return (
            _eager_safe(expr.operand)
            and _eager_safe(expr.low)
            and _eager_safe(expr.high)
        )
    if isinstance(expr, Arithmetic):
        if expr.op in ("/", "%"):
            return False  # can raise division-by-zero
        return _eager_safe(expr.left) and _eager_safe(expr.right)
    return False


def _compile(expr: Expr, schema: Schema) -> Kernel:
    if isinstance(expr, Literal):
        value = expr.value
        return lambda columns, n: [value] * n

    if isinstance(expr, ColumnRef):
        position = schema.resolve(expr.name, expr.qualifier)
        return lambda columns, n: columns[position]

    if isinstance(expr, PositionRef):
        position = expr.position
        return lambda columns, n: columns[position]

    if isinstance(expr, ConsistencyPredicate):
        return _consistency_kernel(expr)

    if isinstance(expr, Comparison):
        return _comparison_kernel(expr, schema)

    if isinstance(expr, BoolOp):
        if not all(_eager_safe(o) for o in expr.operands):
            return _row_fallback(expr, schema)
        kernels = [_compile(o, schema) for o in expr.operands]
        combine = and3 if expr.op == "AND" else or3

        def run_bool(columns: Sequence[Sequence[Any]], n: int) -> List[Any]:
            acc = list(kernels[0](columns, n))
            for kernel in kernels[1:]:
                operand = kernel(columns, n)
                acc = [combine(a, v) for a, v in zip(acc, operand)]
            return acc

        return run_bool

    if isinstance(expr, Not):
        inner = _compile(expr.operand, schema)
        return lambda columns, n: [not3(v) for v in inner(columns, n)]

    if isinstance(expr, IsNull):
        inner = _compile(expr.operand, schema)
        if expr.negated:
            return lambda columns, n: [v is not None for v in inner(columns, n)]
        return lambda columns, n: [v is None for v in inner(columns, n)]

    if isinstance(expr, Between):
        lowered = BoolOp(
            "AND",
            [
                Comparison(">=", expr.operand, expr.low),
                Comparison("<=", expr.operand, expr.high),
            ],
        )
        inner = _compile(lowered, schema)
        if expr.negated:
            return lambda columns, n: [not3(v) for v in inner(columns, n)]
        return inner

    if isinstance(expr, Negate):
        inner = _compile(expr.operand, schema)
        return lambda columns, n: [
            None if v is None else -v for v in inner(columns, n)
        ]

    if isinstance(expr, Arithmetic):
        return _arithmetic_kernel(expr, schema)

    # CASE / CAST / IN / function calls: lazily-evaluated or raising
    # constructs keep the per-row evaluator's exact semantics via the
    # fallback.
    return _row_fallback(expr, schema)


# ---------------------------------------------------------------------------
# Comparisons.
# ---------------------------------------------------------------------------


def _comparison_kernel(expr: Comparison, schema: Schema) -> Kernel:
    # infer_type validates operand compatibility; incompatible kinds were
    # rejected at plan time, so direct Python operators are safe here.
    expr.infer_type(schema)
    left = _compile(expr.left, schema)
    right = _compile(expr.right, schema)
    op = "<>" if expr.op == "!=" else expr.op

    # The formulations below reproduce compare_values() exactly, including
    # its NaN behaviour: cmp is +1 when neither == nor < holds.
    if op == "=":
        def run(a, b):
            return None if a is None or b is None else a == b
    elif op == "<>":
        def run(a, b):
            return None if a is None or b is None else a != b
    elif op == "<":
        def run(a, b):
            return None if a is None or b is None else a < b
    elif op == "<=":
        def run(a, b):
            return None if a is None or b is None else (a == b or a < b)
    elif op == ">":
        def run(a, b):
            return None if a is None or b is None else not (a == b or a < b)
    else:  # ">="
        def run(a, b):
            return None if a is None or b is None else not (a < b)

    def kernel(columns: Sequence[Sequence[Any]], n: int) -> List[Any]:
        return [run(a, b) for a, b in zip(left(columns, n), right(columns, n))]

    return kernel


# ---------------------------------------------------------------------------
# Arithmetic.
# ---------------------------------------------------------------------------


def _arithmetic_kernel(expr: Arithmetic, schema: Schema) -> Kernel:
    left_type = expr.left.infer_type(schema)
    right_type = expr.right.infer_type(schema)
    left = _compile(expr.left, schema)
    right = _compile(expr.right, schema)
    op = expr.op
    integer_result = left_type == INTEGER and right_type == INTEGER

    if op == "+":
        # Covers text concatenation too: Python's + is string concat, and
        # the NULL handling is identical.
        def run(a, b):
            return None if a is None or b is None else a + b
    elif op == "-":
        def run(a, b):
            return None if a is None or b is None else a - b
    elif op == "*":
        def run(a, b):
            return None if a is None or b is None else a * b
    elif op == "/":
        def run(a, b):
            if a is None or b is None:
                return None
            if b == 0:
                raise ExpressionError("division by zero")
            return int(a / b) if integer_result else a / b
    elif op == "%":
        def run(a, b):
            if a is None or b is None:
                return None
            if b == 0:
                raise ExpressionError("division by zero")
            return int(math.fmod(a, b)) if integer_result else math.fmod(a, b)
    else:  # pragma: no cover - Arithmetic.__post_init__ rejects others
        raise ExpressionError(f"unknown arithmetic operator {op!r}")

    def kernel(columns: Sequence[Sequence[Any]], n: int) -> List[Any]:
        return [run(a, b) for a, b in zip(left(columns, n), right(columns, n))]

    return kernel


# ---------------------------------------------------------------------------
# The consistency filter kernel.
# ---------------------------------------------------------------------------


def consistency_mask(pairs, array_of: Callable[[int], Any]):
    """⋀ (V_i ≠ V'_j ∨ D_i = D'_j) as one boolean ndarray.  ``array_of``
    maps a condition-column position to its int64 array, or to None when
    it has none -- then so has the mask."""
    arrays = {}
    for position in {p for quad in pairs for p in quad}:
        array = array_of(position)
        if array is None:
            return None
        arrays[position] = array
    mask = None
    for vi, di, vj, dj in pairs:
        pair_mask = (arrays[vi] != arrays[vj]) | (arrays[di] == arrays[dj])
        mask = pair_mask if mask is None else (mask & pair_mask)
    return mask


def _consistency_kernel(expr: ConsistencyPredicate) -> Kernel:
    """The consistency filter over integer condition columns.

    Vectorized with NumPy (the condition columns are system-maintained
    integers, never NULL); a pure-Python single pass below
    ``_NUMPY_MIN_ROWS`` rows or when a column has no int64 form.
    """
    pairs = expr.pairs
    positions = sorted({p for quad in pairs for p in quad})

    def kernel(columns: Sequence[Sequence[Any]], n: int) -> List[Any]:
        if n == 0:
            return []
        if n >= _NUMPY_MIN_ROWS:
            mask = consistency_mask(
                pairs, lambda position: columnar.int_array(columns[position], n)
            )
            if mask is not None:
                return mask.tolist()
        if len(pairs) == 1:
            vi, di, vj, dj = pairs[0]
            return [
                a != c or b == d
                for a, b, c, d in zip(
                    columns[vi], columns[di], columns[vj], columns[dj]
                )
            ]
        out = []
        for row in zip(*(columns[p] for p in positions)):
            value_at = dict(zip(positions, row))
            keep = True
            for vi, di, vj, dj in pairs:
                if value_at[vi] == value_at[vj] and value_at[di] != value_at[dj]:
                    keep = False
                    break
            out.append(keep)
        return out

    return kernel


def split_consistency(
    residual: Optional[Expr],
) -> Tuple[Optional[ConsistencyPredicate], Optional[Expr]]:
    """Take the consistency filter out of a join's residual predicate, so
    the join can run it on mirrors: ``(consistency, everything else)``.
    Left whole (``(None, residual)``) when there is not exactly one, or
    when another conjunct can raise -- the split evaluates out of order.
    """
    if residual is None:
        return None, None
    conjuncts = conjuncts_of(residual)
    found = [c for c in conjuncts if isinstance(c, ConsistencyPredicate)]
    rest = [c for c in conjuncts if not isinstance(c, ConsistencyPredicate)]
    if len(found) != 1 or not all(_eager_safe(c) for c in rest):
        return None, residual
    return found[0], conjunction(rest)


# ---------------------------------------------------------------------------
# Vectorized scan filters.
# ---------------------------------------------------------------------------

#: (position, "int64" | "float64") -> mirror of that column.
_Arrays = Dict[Tuple[int, str], Any]
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


class VectorFilter:
    """The comparison conjuncts of a scan predicate as array kernels.

    ``mask(relation)`` evaluates them over the relation's whole mirrors
    and returns a boolean ndarray, or None when a mirror is unavailable
    (NULLs, values NumPy cannot hold exactly) -- the caller then runs the
    complete predicate through the Python kernels.  ``residual`` is the
    Python kernel of the conjuncts that have no array form (None when
    there are none); it only ever sees the rows the mask kept.
    ``label`` is what EXPLAIN prints.
    """

    __slots__ = ("_needs", "_evaluate", "residual", "label")

    def __init__(self, needs, evaluate, residual: Optional[Kernel], label: str):
        self._needs = needs
        self._evaluate = evaluate
        self.residual = residual
        self.label = label

    def mask(self, relation: Relation):
        arrays: _Arrays = {}
        for key in self._needs:
            mirror = relation.mirror(*key)
            if mirror is None:
                return None
            arrays[key] = mirror
        return self._evaluate(arrays)


def compile_vector_filter(predicate: Expr, schema: Schema) -> Optional[VectorFilter]:
    """The vectorized form of a filter over a scan of ``schema``, or None
    when no conjunct of ``predicate`` has one.

    Conjuncts without an array form stay Python kernels and run after
    the mask, on the surviving rows only.  That reorders evaluation, so
    it is allowed only when none of them can raise (left-to-right
    evaluation might have raised on a row the mask drops).
    """
    needs: List[Tuple[int, str]] = []
    vector: List[Callable[[_Arrays], Any]] = []
    rest: List[Expr] = []
    for conjunct in conjuncts_of(predicate):
        # Mirrors are asked for only on behalf of conjuncts that compiled:
        # one that gave up half-way must not make the filter wait on (or
        # fall back over) a column it never compares on arrays.
        reads: List[Tuple[int, str]] = []
        try:
            compiled = _vector(conjunct, schema, reads)
        except MayBMSError:
            compiled = None
        if compiled is None:
            rest.append(conjunct)
        else:
            vector.append(compiled)
            needs.extend(reads)
    if not vector or not all(_eager_safe(e) for e in rest):
        return None
    seen = list(dict.fromkeys(needs))
    label = "vectorized[" + ", ".join(
        f"{schema[position].name}:{dtype}" for position, dtype in seen
    ) + "]"
    residual = compile_kernel(conjunction(rest), schema) if rest else None
    return VectorFilter(seen, _combined(vector, True), residual, label)


def _combined(kernels, conjunctive: bool):
    """AND (or OR) of mask kernels."""

    def run(arrays: _Arrays):
        mask = kernels[0](arrays)
        for kernel in kernels[1:]:
            mask = (mask & kernel(arrays)) if conjunctive else (mask | kernel(arrays))
        return mask

    return run


def _vector(expr: Expr, schema: Schema, needs: List[Tuple[int, str]]):
    """``expr`` as a function from mirrors to a boolean ndarray, or None.
    Appends the mirrors it reads to ``needs``."""
    if isinstance(expr, Comparison):
        return _vector_comparison(expr, schema, needs)
    if isinstance(expr, BoolOp):
        kernels = [_vector(o, schema, needs) for o in expr.operands]
        if any(k is None for k in kernels):
            return None
        return _combined(kernels, expr.op == "AND")
    if isinstance(expr, Between):
        inner = _vector(
            BoolOp(
                "AND",
                [
                    Comparison(">=", expr.operand, expr.low),
                    Comparison("<=", expr.operand, expr.high),
                ],
            ),
            schema,
            needs,
        )
        if inner is None or not expr.negated:
            return inner
        return lambda arrays: ~inner(arrays)
    return None


def _vector_comparison(expr: Comparison, schema: Schema, needs):
    """Column-vs-literal or column-vs-column over numeric operands.

    INTEGER-vs-FLOAT is compared in float64, and only through mirrors and
    literals that convert exactly: a lossy cast would let NumPy disagree
    with Python's exact int-vs-float comparison (2**53 + 1 <= 2.0**53 is
    false, but true after rounding the int to float64).
    """
    expr.infer_type(schema)
    sides = []  # ("column", position, type) | ("literal", value, type)
    for operand in (expr.left, expr.right):
        if isinstance(operand, (ColumnRef, PositionRef)):
            position = (
                operand.position
                if isinstance(operand, PositionRef)
                else schema.resolve(operand.name, operand.qualifier)
            )
            kind = operand.infer_type(schema)
            if not kind.is_numeric:
                return None
            sides.append(("column", position, kind))
        elif isinstance(operand, Literal) and type(operand.value) in (int, float):
            value = operand.value
            sides.append(("literal", value, FLOAT if type(value) is float else INTEGER))
        else:
            return None
    if all(side[0] == "literal" for side in sides):
        return None
    in_float = any(side[2] == FLOAT for side in sides)
    dtype = "float64" if in_float else "int64"
    getters = []
    for what, value, _ in sides:
        if what == "column":
            key = (value, dtype)
            needs.append(key)
            getters.append(lambda arrays, key=key: arrays[key])
            continue
        if type(value) is int:
            low, high = (
                (-columnar.FLOAT_EXACT_INT, columnar.FLOAT_EXACT_INT)
                if in_float
                else (_INT64_MIN, _INT64_MAX)
            )
            if not low <= value <= high:
                return None
        getters.append(lambda arrays, value=value: value)
    left, right = getters
    op = "<>" if expr.op == "!=" else expr.op
    # Same formulations as _comparison_kernel: compare_values() puts NaN
    # above everything, so > and >= are the negations of <= and <.
    if op == "=":
        return lambda arrays: left(arrays) == right(arrays)
    if op == "<>":
        return lambda arrays: left(arrays) != right(arrays)
    if op == "<":
        return lambda arrays: left(arrays) < right(arrays)
    if op == "<=":
        return lambda arrays: left(arrays) <= right(arrays)
    if op == ">":
        return lambda arrays: ~(left(arrays) <= right(arrays))
    return lambda arrays: ~(left(arrays) < right(arrays))
