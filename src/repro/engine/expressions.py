"""Scalar expression AST, type inference, and evaluation.

Expressions appear in selections, projections, join conditions, ``weight
by`` clauses of ``repair key``, and ``with probability`` clauses of ``pick
tuples``.  The AST is bound against a :class:`~repro.engine.schema.Schema`
and then *compiled* into a Python closure mapping a row tuple to a value;
the physical operators call only compiled closures on their hot paths.

NULL handling follows SQL: comparisons and arithmetic propagate NULL, and
boolean connectives use Kleene three-valued logic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.engine.schema import Schema
from repro.engine.types import (
    BOOLEAN,
    FLOAT,
    INTEGER,
    NULL,
    TEXT,
    SqlType,
    and3,
    common_type,
    compare_values,
    not3,
    or3,
    type_of_literal,
)
from repro.errors import ExpressionError, TypeMismatchError

Evaluator = Callable[[tuple], Any]


class Expr:
    """Base class for scalar expressions."""

    def infer_type(self, schema: Schema) -> SqlType:
        raise NotImplementedError

    def compile(self, schema: Schema) -> Evaluator:
        raise NotImplementedError

    def evaluate(self, schema: Schema, row: tuple) -> Any:
        """One-shot evaluation (binds and evaluates; use compile() in loops)."""
        return self.compile(schema)(row)

    def column_refs(self) -> List["ColumnRef"]:
        """All column references in this expression tree."""
        refs: List[ColumnRef] = []
        self._collect_refs(refs)
        return refs

    def _collect_refs(self, out: List["ColumnRef"]) -> None:
        for child in self.children():
            child._collect_refs(out)

    def children(self) -> Sequence["Expr"]:
        return ()

    # Convenience combinators, so plans can be built fluently in Python.
    def eq(self, other: "Expr") -> "Comparison":
        return Comparison("=", self, other)

    def and_(self, other: "Expr") -> "BoolOp":
        return BoolOp("AND", [self, other])


@dataclass(frozen=True)
class Literal(Expr):
    """A constant value; its SQL type is inferred from the Python value
    unless given explicitly (needed for typed NULLs)."""

    value: Any
    explicit_type: Optional[SqlType] = None

    def infer_type(self, schema: Schema) -> SqlType:
        if self.explicit_type is not None:
            return self.explicit_type
        return type_of_literal(self.value)

    def compile(self, schema: Schema) -> Evaluator:
        value = self.value
        return lambda row: value

    def __repr__(self) -> str:
        return f"Lit({self.value!r})"


@dataclass(frozen=True)
class ColumnRef(Expr):
    """A reference to ``[qualifier.]name`` in the schema in scope."""

    name: str
    qualifier: Optional[str] = None

    def infer_type(self, schema: Schema) -> SqlType:
        return schema.column_of(self.name, self.qualifier).type

    def compile(self, schema: Schema) -> Evaluator:
        position = schema.resolve(self.name, self.qualifier)
        return lambda row: row[position]

    def _collect_refs(self, out: List["ColumnRef"]) -> None:
        out.append(self)

    def __repr__(self) -> str:
        return f"Col({self.qualifier + '.' if self.qualifier else ''}{self.name})"


@dataclass(frozen=True)
class PositionRef(Expr):
    """A reference to a column by position.  Used by generated plans (the
    parsimonious translation builds these directly, bypassing names)."""

    position: int
    type: SqlType

    def infer_type(self, schema: Schema) -> SqlType:
        return self.type

    def compile(self, schema: Schema) -> Evaluator:
        position = self.position
        return lambda row: row[position]

    def __repr__(self) -> str:
        return f"Pos({self.position})"


_ARITH_OPS = {"+", "-", "*", "/", "%"}


@dataclass(frozen=True)
class Arithmetic(Expr):
    """Binary arithmetic with NULL propagation.

    ``/`` follows PostgreSQL: integer / integer is integer division
    truncated toward zero; division by zero raises.
    """

    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in _ARITH_OPS:
            raise ExpressionError(f"unknown arithmetic operator {self.op!r}")

    def children(self) -> Sequence[Expr]:
        return (self.left, self.right)

    def infer_type(self, schema: Schema) -> SqlType:
        lt = self.left.infer_type(schema)
        rt = self.right.infer_type(schema)
        if self.op == "+" and lt.is_text and rt.is_text:
            return TEXT  # string concatenation convenience
        if not (lt.is_numeric and rt.is_numeric):
            raise TypeMismatchError(
                f"arithmetic {self.op!r} needs numeric operands, got {lt} and {rt}"
            )
        return common_type(lt, rt)

    def compile(self, schema: Schema) -> Evaluator:
        lf = self.left.compile(schema)
        rf = self.right.compile(schema)
        lt = self.left.infer_type(schema)
        rt = self.right.infer_type(schema)
        op = self.op

        if op == "+" and lt.is_text and rt.is_text:
            def concat(row):
                a, b = lf(row), rf(row)
                if a is NULL or b is NULL:
                    return NULL
                return a + b
            return concat

        integer_result = lt == INTEGER and rt == INTEGER

        def run(row):
            a, b = lf(row), rf(row)
            if a is NULL or b is NULL:
                return NULL
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if op == "/":
                if b == 0:
                    raise ExpressionError("division by zero")
                if integer_result:
                    return int(a / b)  # truncate toward zero, like PostgreSQL
                return a / b
            if op == "%":
                if b == 0:
                    raise ExpressionError("division by zero")
                return math.fmod(a, b) if not integer_result else int(math.fmod(a, b))
            raise AssertionError(op)

        return run

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class Negate(Expr):
    """Unary numeric minus."""

    operand: Expr

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def infer_type(self, schema: Schema) -> SqlType:
        t = self.operand.infer_type(schema)
        if not t.is_numeric:
            raise TypeMismatchError(f"unary minus needs a numeric operand, got {t}")
        return t

    def compile(self, schema: Schema) -> Evaluator:
        f = self.operand.compile(schema)

        def run(row):
            v = f(row)
            return NULL if v is NULL else -v

        return run


_COMPARISON_OPS = {"=", "<>", "!=", "<", "<=", ">", ">="}


@dataclass(frozen=True)
class Comparison(Expr):
    """A comparison producing BOOLEAN (or NULL when either side is NULL)."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in _COMPARISON_OPS:
            raise ExpressionError(f"unknown comparison operator {self.op!r}")

    def children(self) -> Sequence[Expr]:
        return (self.left, self.right)

    def infer_type(self, schema: Schema) -> SqlType:
        # Validate operand compatibility eagerly so analysis catches it.
        lt = self.left.infer_type(schema)
        rt = self.right.infer_type(schema)
        if lt != rt and not (lt.is_numeric and rt.is_numeric):
            raise TypeMismatchError(f"cannot compare {lt} with {rt}")
        return BOOLEAN

    def compile(self, schema: Schema) -> Evaluator:
        lf = self.left.compile(schema)
        rf = self.right.compile(schema)
        op = "<>" if self.op == "!=" else self.op

        def run(row):
            cmp = compare_values(lf(row), rf(row))
            if cmp is NULL:
                return NULL
            if op == "=":
                return cmp == 0
            if op == "<>":
                return cmp != 0
            if op == "<":
                return cmp < 0
            if op == "<=":
                return cmp <= 0
            if op == ">":
                return cmp > 0
            if op == ">=":
                return cmp >= 0
            raise AssertionError(op)

        return run

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


@dataclass(frozen=True)
class BoolOp(Expr):
    """N-ary AND / OR with Kleene three-valued logic."""

    op: str  # "AND" | "OR"
    operands: Tuple[Expr, ...]

    def __init__(self, op: str, operands: Sequence[Expr]):
        if op not in ("AND", "OR"):
            raise ExpressionError(f"unknown boolean operator {op!r}")
        if not operands:
            raise ExpressionError(f"{op} needs at least one operand")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "operands", tuple(operands))

    def children(self) -> Sequence[Expr]:
        return self.operands

    def infer_type(self, schema: Schema) -> SqlType:
        for operand in self.operands:
            t = operand.infer_type(schema)
            if not t.is_boolean:
                raise TypeMismatchError(f"{self.op} operand has type {t}, expected BOOLEAN")
        return BOOLEAN

    def compile(self, schema: Schema) -> Evaluator:
        fns = [o.compile(schema) for o in self.operands]
        combine = and3 if self.op == "AND" else or3
        # Short-circuit on the dominating value for speed.
        dominator = False if self.op == "AND" else True

        def run(row):
            acc: Optional[bool] = not dominator
            for fn in fns:
                v = fn(row)
                if v is dominator:
                    return dominator
                acc = combine(acc, v)
            return acc

        return run

    def __repr__(self) -> str:
        return "(" + f" {self.op} ".join(repr(o) for o in self.operands) + ")"


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def infer_type(self, schema: Schema) -> SqlType:
        t = self.operand.infer_type(schema)
        if not t.is_boolean:
            raise TypeMismatchError(f"NOT operand has type {t}, expected BOOLEAN")
        return BOOLEAN

    def compile(self, schema: Schema) -> Evaluator:
        f = self.operand.compile(schema)
        return lambda row: not3(f(row))


@dataclass(frozen=True)
class IsNull(Expr):
    """``x IS NULL`` / ``x IS NOT NULL`` -- never returns NULL itself."""

    operand: Expr
    negated: bool = False

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def infer_type(self, schema: Schema) -> SqlType:
        self.operand.infer_type(schema)
        return BOOLEAN

    def compile(self, schema: Schema) -> Evaluator:
        f = self.operand.compile(schema)
        if self.negated:
            return lambda row: f(row) is not NULL
        return lambda row: f(row) is NULL


@dataclass(frozen=True)
class InList(Expr):
    """``x IN (v1, v2, ...)`` over literal/scalar expressions.

    SQL semantics: NULL if x is NULL, or if no element matches but some
    element is NULL.
    """

    operand: Expr
    items: Tuple[Expr, ...]
    negated: bool = False

    def __init__(self, operand: Expr, items: Sequence[Expr], negated: bool = False):
        object.__setattr__(self, "operand", operand)
        object.__setattr__(self, "items", tuple(items))
        object.__setattr__(self, "negated", negated)

    def children(self) -> Sequence[Expr]:
        return (self.operand, *self.items)

    def infer_type(self, schema: Schema) -> SqlType:
        self.operand.infer_type(schema)
        for item in self.items:
            item.infer_type(schema)
        return BOOLEAN

    def compile(self, schema: Schema) -> Evaluator:
        f = self.operand.compile(schema)
        fns = [i.compile(schema) for i in self.items]
        negated = self.negated

        def run(row):
            x = f(row)
            if x is NULL:
                return NULL
            saw_null = False
            for fn in fns:
                v = fn(row)
                if v is NULL:
                    saw_null = True
                    continue
                if compare_values(x, v) == 0:
                    return not negated
            if saw_null:
                return NULL
            return negated

        return run


@dataclass(frozen=True)
class Between(Expr):
    """``x BETWEEN lo AND hi`` (inclusive both ends)."""

    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def children(self) -> Sequence[Expr]:
        return (self.operand, self.low, self.high)

    def infer_type(self, schema: Schema) -> SqlType:
        self.operand.infer_type(schema)
        self.low.infer_type(schema)
        self.high.infer_type(schema)
        return BOOLEAN

    def compile(self, schema: Schema) -> Evaluator:
        inner = BoolOp(
            "AND",
            [
                Comparison(">=", self.operand, self.low),
                Comparison("<=", self.operand, self.high),
            ],
        ).compile(schema)
        if self.negated:
            return lambda row: not3(inner(row))
        return inner


@dataclass(frozen=True)
class Case(Expr):
    """Searched CASE: ``CASE WHEN c1 THEN v1 ... [ELSE e] END``."""

    branches: Tuple[Tuple[Expr, Expr], ...]
    default: Optional[Expr] = None

    def __init__(self, branches: Sequence[Tuple[Expr, Expr]], default: Optional[Expr] = None):
        if not branches:
            raise ExpressionError("CASE needs at least one WHEN branch")
        object.__setattr__(self, "branches", tuple(branches))
        object.__setattr__(self, "default", default)

    def children(self) -> Sequence[Expr]:
        out: List[Expr] = []
        for cond, value in self.branches:
            out.extend((cond, value))
        if self.default is not None:
            out.append(self.default)
        return out

    def infer_type(self, schema: Schema) -> SqlType:
        result: Optional[SqlType] = None
        for cond, value in self.branches:
            if not cond.infer_type(schema).is_boolean:
                raise TypeMismatchError("CASE WHEN condition must be BOOLEAN")
            t = value.infer_type(schema)
            result = t if result is None else common_type(result, t)
        if self.default is not None:
            result = common_type(result, self.default.infer_type(schema))
        assert result is not None
        return result

    def compile(self, schema: Schema) -> Evaluator:
        compiled = [(c.compile(schema), v.compile(schema)) for c, v in self.branches]
        default = self.default.compile(schema) if self.default is not None else None

        def run(row):
            for cond, value in compiled:
                if cond(row) is True:
                    return value(row)
            if default is not None:
                return default(row)
            return NULL

        return run


@dataclass(frozen=True)
class Cast(Expr):
    """``CAST(x AS type)`` with PostgreSQL-like conversions."""

    operand: Expr
    target: SqlType

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def infer_type(self, schema: Schema) -> SqlType:
        self.operand.infer_type(schema)
        return self.target

    def compile(self, schema: Schema) -> Evaluator:
        f = self.operand.compile(schema)
        target = self.target

        def run(row):
            v = f(row)
            if v is NULL:
                return NULL
            try:
                if target == INTEGER:
                    if isinstance(v, bool):
                        return int(v)
                    if isinstance(v, str):
                        return int(v.strip())
                    return int(v)
                if target == FLOAT:
                    if isinstance(v, str):
                        return float(v.strip())
                    return float(v)
                if target == TEXT:
                    if isinstance(v, bool):
                        return "true" if v else "false"
                    return str(v)
                if target == BOOLEAN:
                    if isinstance(v, bool):
                        return v
                    if isinstance(v, str):
                        s = v.strip().lower()
                        if s in ("t", "true", "1", "yes"):
                            return True
                        if s in ("f", "false", "0", "no"):
                            return False
                        raise ValueError(v)
                    if isinstance(v, int):
                        return bool(v)
            except (ValueError, TypeError) as exc:
                raise ExpressionError(f"cannot cast {v!r} to {target}") from exc
            raise ExpressionError(f"cannot cast {v!r} to {target}")

        return run


# -- scalar functions ---------------------------------------------------------
# name -> (min arity, max arity, result-type rule, implementation)
def _numeric_result(arg_types: List[SqlType]) -> SqlType:
    for t in arg_types:
        if not t.is_numeric:
            raise TypeMismatchError(f"numeric function applied to {t}")
    result = arg_types[0]
    for t in arg_types[1:]:
        result = common_type(result, t)
    return result


def _null_safe(fn):
    def wrapped(*args):
        if any(a is NULL for a in args):
            return NULL
        return fn(*args)

    return wrapped


_FUNCTIONS = {
    "abs": (1, 1, _numeric_result, _null_safe(abs)),
    "round": (
        1,
        2,
        lambda ts: FLOAT if len(ts) == 2 else _numeric_result(ts),
        _null_safe(lambda x, n=0: round(x, int(n))),
    ),
    "floor": (1, 1, lambda ts: INTEGER, _null_safe(lambda x: math.floor(x))),
    "ceil": (1, 1, lambda ts: INTEGER, _null_safe(lambda x: math.ceil(x))),
    "sqrt": (1, 1, lambda ts: FLOAT, _null_safe(math.sqrt)),
    "exp": (1, 1, lambda ts: FLOAT, _null_safe(math.exp)),
    "ln": (1, 1, lambda ts: FLOAT, _null_safe(math.log)),
    "power": (2, 2, lambda ts: FLOAT, _null_safe(lambda a, b: float(a) ** b)),
    "lower": (1, 1, lambda ts: TEXT, _null_safe(str.lower)),
    "upper": (1, 1, lambda ts: TEXT, _null_safe(str.upper)),
    "length": (1, 1, lambda ts: INTEGER, _null_safe(len)),
    "coalesce": (
        1,
        None,
        # INTEGER widens to FLOAT when a FLOAT (maybe NaN) can be returned.
        lambda ts: FLOAT if ts[0] == INTEGER and FLOAT in ts else ts[0],
        lambda *args: next((a for a in args if a is not NULL), NULL),
    ),
    "least": (
        1,
        None,
        _numeric_result,
        lambda *args: min((a for a in args if a is not NULL), default=NULL),
    ),
    "greatest": (
        1,
        None,
        _numeric_result,
        lambda *args: max((a for a in args if a is not NULL), default=NULL),
    ),
}


@dataclass(frozen=True)
class FunctionCall(Expr):
    """A call to a built-in scalar function."""

    name: str
    args: Tuple[Expr, ...]

    def __init__(self, name: str, args: Sequence[Expr]):
        lowered = name.lower()
        if lowered not in _FUNCTIONS:
            raise ExpressionError(f"unknown function {name!r}")
        lo, hi, _, _ = _FUNCTIONS[lowered]
        if len(args) < lo or (hi is not None and len(args) > hi):
            raise ExpressionError(
                f"function {name!r} expects between {lo} and {hi or 'N'} "
                f"arguments, got {len(args)}"
            )
        object.__setattr__(self, "name", lowered)
        object.__setattr__(self, "args", tuple(args))

    def children(self) -> Sequence[Expr]:
        return self.args

    def infer_type(self, schema: Schema) -> SqlType:
        _, _, type_rule, _ = _FUNCTIONS[self.name]
        return type_rule([a.infer_type(schema) for a in self.args])

    def compile(self, schema: Schema) -> Evaluator:
        _, _, _, impl = _FUNCTIONS[self.name]
        fns = [a.compile(schema) for a in self.args]

        def run(row):
            return impl(*(fn(row) for fn in fns))

        return run


@dataclass(frozen=True)
class ConsistencyPredicate(Expr):
    """The U-relation join consistency filter as a first-class expression.

    Semantically equivalent to  ⋀_{(i,j)} (V_i ≠ V'_j  ∨  D_i = D'_j)
    over integer condition columns addressed *by position* in a combined
    join row, but represented specially so both engines can run it as a
    dedicated kernel: it is the hottest loop of the parsimonious
    translation (every joined row pays cond_arity_left x cond_arity_right
    atom comparisons).  ``pairs`` holds position quadruples
    ``(var_i, val_i, var_j, val_j)``.

    The condition columns are system-maintained integers and never NULL,
    so three-valued logic never arises and the filter is a pure boolean.
    """

    pairs: Tuple[Tuple[int, int, int, int], ...]

    def __init__(self, pairs: Sequence[Tuple[int, int, int, int]]):
        if not pairs:
            raise ExpressionError("consistency predicate needs at least one pair")
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in pairs))

    def children(self) -> Sequence[Expr]:
        # Expose the referenced positions so the planner's side analysis
        # (pushdown / residual classification) sees what the kernel reads.
        out: List[Expr] = []
        for vi, di, vj, dj in self.pairs:
            out.extend(
                (
                    PositionRef(vi, INTEGER),
                    PositionRef(di, INTEGER),
                    PositionRef(vj, INTEGER),
                    PositionRef(dj, INTEGER),
                )
            )
        return out

    def infer_type(self, schema: Schema) -> SqlType:
        return BOOLEAN

    def compile(self, schema: Schema) -> Evaluator:
        pairs = self.pairs

        if len(pairs) == 1:
            vi, di, vj, dj = pairs[0]

            def run_one(row):
                return row[vi] != row[vj] or row[di] == row[dj]

            return run_one

        def run(row):
            for vi, di, vj, dj in pairs:
                if row[vi] == row[vj] and row[di] != row[dj]:
                    return False
            return True

        return run

    def __repr__(self) -> str:
        inner = " AND ".join(
            f"(Pos({vi}) <> Pos({vj}) OR Pos({di}) = Pos({dj}))"
            for vi, di, vj, dj in self.pairs
        )
        return f"Consistency[{inner}]"


def scalar_function_names() -> List[str]:
    """The names of all built-in scalar functions (for the SQL analyzer)."""
    return sorted(_FUNCTIONS)


def conjuncts_of(expr: Expr) -> List[Expr]:
    """Flatten a predicate into its top-level AND-ed conjuncts.

    The planner uses this for predicate pushdown and equi-join extraction.
    """
    if isinstance(expr, BoolOp) and expr.op == "AND":
        out: List[Expr] = []
        for operand in expr.operands:
            out.extend(conjuncts_of(operand))
        return out
    return [expr]


def conjunction(exprs: Sequence[Expr]) -> Optional[Expr]:
    """Combine conjuncts back into one predicate (None for an empty list)."""
    if not exprs:
        return None
    if len(exprs) == 1:
        return exprs[0]
    return BoolOp("AND", list(exprs))
