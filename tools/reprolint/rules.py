"""Rule implementations for reprolint (codes R001..R006; R004 is retired).

Each rule encodes a project invariant from the lock/MVCC/WAL stack:

R001  paired-lock-release      .acquire() without release on all exit paths
R002  lock-hierarchy           static lock-order graph vs committed manifest
R003  determinism              nondeterminism bans in bit-identical paths
R005  pin-balance              pin_snapshot without unpin_snapshot cleanup
R006  swallowed-failure        bare except

The rules are deliberately syntactic: they over-approximate in a few places
and rely on inline suppressions (with justification comments) for the rare
intentional deviation, e.g. the cross-function checkpoint-lock handoff.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from tools.reprolint import FileContext, Rule, Violation, register

# Receivers that look like synchronisation primitives.
_LOCKISH_FRAGMENTS = ("lock", "mutex", "cond", "gate", "sem")

# Paths subject to the bit-identical determinism bans (R003).
_DETERMINISM_PATHS = ("core/confidence",)


def attr_text(node: ast.AST) -> Optional[str]:
    """Render a dotted Name/Attribute chain ('self._file_mutex'), else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = attr_text(node.value)
        if base is None:
            return None
        return base + "." + node.attr
    return None


def last_attr(text: Optional[str]) -> Optional[str]:
    if not text:
        return None
    return text.rsplit(".", 1)[-1]


def is_lockish(text: Optional[str]) -> bool:
    name = last_attr(text)
    if not name:
        return False
    lowered = name.lower()
    return any(fragment in lowered for fragment in _LOCKISH_FRAGMENTS)


def iter_scopes(tree: ast.Module) -> Iterator[Tuple[Optional[ast.AST], List[ast.stmt]]]:
    """Yield (function_node_or_None, statements) for every function scope plus
    the module top level.  Nested functions become their own scopes."""
    module_stmts = [s for s in tree.body if not isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
    yield None, module_stmts
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node, list(node.body)


def walk_scope(stmts: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """Walk all nodes reachable from stmts without entering nested
    function/class definitions (those are separate scopes)."""
    stack: List[ast.AST] = list(stmts)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
                continue
            stack.append(child)


def _method_calls(stmts: Sequence[ast.stmt], method: str) -> List[ast.Call]:
    calls = []
    for node in walk_scope(stmts):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == method
        ):
            calls.append(node)
    return calls


def _finally_blocks(stmts: Sequence[ast.stmt]) -> Iterator[List[ast.stmt]]:
    for node in walk_scope(stmts):
        if isinstance(node, ast.Try) and node.finalbody:
            yield node.finalbody


def _except_blocks(stmts: Sequence[ast.stmt]) -> Iterator[List[ast.stmt]]:
    for node in walk_scope(stmts):
        if isinstance(node, ast.Try):
            for handler in node.handlers:
                yield list(handler.body)


@register
class PairedLockReleaseRule(Rule):
    """R001: a raw ``X.acquire()`` must have ``X.release()`` in a ``finally``
    of the same scope, so the lock is released on every exit path.  Releases
    that only live in ``except`` handlers cover the error path but leak the
    lock on success, so they do not count.  Prefer ``with X:``."""

    code = "R001"
    name = "paired-lock-release"
    description = ".acquire() on a Lock/Condition without release on all exit paths"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for _fn, stmts in iter_scopes(ctx.tree):
            released_in_finally: Set[str] = set()
            for block in _finally_blocks(stmts):
                for call in _method_calls(block, "release"):
                    text = attr_text(call.func.value)  # type: ignore[union-attr]
                    if text:
                        released_in_finally.add(text)
            for call in _method_calls(stmts, "acquire"):
                receiver = attr_text(call.func.value)  # type: ignore[union-attr]
                if not is_lockish(receiver):
                    continue
                if receiver in released_in_finally:
                    continue
                yield Violation(
                    path=ctx.path,
                    line=call.lineno,
                    col=call.col_offset,
                    code=self.code,
                    message=(
                        "%s.acquire() without %s.release() in a finally block of the "
                        "same scope; use 'with %s:' or release in finally"
                        % (receiver, receiver, receiver)
                    ),
                )


@register
class LockHierarchyRule(Rule):
    """R002: static lock-acquisition-order graph (engine/ + db.py) checked
    for cycles and rank monotonicity against the committed manifest.
    Implementation lives in :mod:`tools.reprolint.lockgraph`."""

    code = "R002"
    name = "lock-hierarchy"
    description = "lock acquisition order must follow the committed lock-hierarchy manifest"

    def check_project(self, contexts: Sequence[FileContext], manifest: Optional[dict]) -> Iterator[Violation]:
        from tools.reprolint.lockgraph import check_lock_hierarchy

        return iter(check_lock_hierarchy(contexts, manifest or {}, self.code))


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in {"set", "frozenset"}
    return False


_SEEDISH_CALL_FRAGMENTS = ("seed", "random", "rng", "mix", "hash")


@register
class DeterminismRule(Rule):
    """R003: the bit-identical paths (core/confidence/) must not consume ambient nondeterminism: no module-level ``random.*``
    draws, no unseeded ``random.Random()``, no ``time.time()``, no ``id()``
    feeding seed computation, no iteration over unordered sets."""

    code = "R003"
    name = "determinism"
    description = "nondeterminism ban in bit-identical execution paths"

    def _applies(self, ctx: FileContext) -> bool:
        return any(fragment in ctx.posix_path for fragment in _DETERMINISM_PATHS)

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not self._applies(ctx):
            return
        parents: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(ctx.tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # random.<fn>(...) on the stdlib module object
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "random"
            ):
                if func.attr == "Random":
                    if not node.args and not node.keywords:
                        yield self._v(ctx, node, "unseeded random.Random(); pass an explicit seed")
                elif func.attr == "SystemRandom":
                    yield self._v(ctx, node, "random.SystemRandom is nondeterministic by construction")
                else:
                    yield self._v(
                        ctx, node,
                        "random.%s() draws from the process-global RNG; use a seeded random.Random instance"
                        % func.attr,
                    )
            # time.time()/time.time_ns() (perf_counter/process_time are fine: timing only)
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
                and func.attr in {"time", "time_ns"}
            ):
                yield self._v(ctx, node, "time.%s() must not feed deterministic paths" % func.attr)
            # id(...) feeding a seed-like computation
            if isinstance(func, ast.Name) and func.id == "id":
                ancestor = parents.get(node)
                while ancestor is not None and not isinstance(ancestor, ast.stmt):
                    if isinstance(ancestor, ast.Call):
                        name = None
                        if isinstance(ancestor.func, ast.Attribute):
                            name = ancestor.func.attr
                        elif isinstance(ancestor.func, ast.Name):
                            name = ancestor.func.id
                        if name and (
                            name == "Random"
                            or any(f in name.lower() for f in _SEEDISH_CALL_FRAGMENTS)
                        ):
                            yield self._v(
                                ctx, node,
                                "id()-derived value feeds %s(); ids vary across runs and processes" % name,
                            )
                            break
                    ancestor = parents.get(ancestor)
        # iteration over unordered sets
        for node in ast.walk(ctx.tree):
            iter_expr: Optional[ast.AST] = None
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iter_expr = node.iter
            elif isinstance(node, ast.comprehension):
                iter_expr = node.iter
            if iter_expr is None:
                continue
            target = iter_expr
            if (
                isinstance(target, ast.Call)
                and isinstance(target.func, ast.Name)
                and target.func.id in {"enumerate", "zip"}
                and target.args
            ):
                target = target.args[0]
            if _is_set_expr(target):
                anchor = target if hasattr(target, "lineno") else node
                yield self._v(
                    ctx, anchor,
                    "iteration over an unordered set; sort before iterating in deterministic paths",
                )

    def _v(self, ctx: FileContext, node: ast.AST, message: str) -> Violation:
        return Violation(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            message=message,
        )


@register
class PinBalanceRule(Rule):
    """R005: a scope that calls ``pin_snapshot()`` must call
    ``unpin_snapshot()`` from a ``finally`` or ``except`` cleanup block of
    the same scope, unless the scope exists to hand the pin to a caller that
    releases it (suppress with justification in that case)."""

    code = "R005"
    name = "pin-balance"
    description = "pin_snapshot without unpin_snapshot on all exits"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for fn, stmts in iter_scopes(ctx.tree):
            pins = _method_calls(stmts, "pin_snapshot")
            if not pins:
                continue
            # unpin in finally or except cleanup counts as balanced
            cleanup_blocks = list(_finally_blocks(stmts)) + list(_except_blocks(stmts))
            balanced = any(_method_calls(block, "unpin_snapshot") for block in cleanup_blocks)
            if balanced:
                continue
            for call in pins:
                yield Violation(
                    path=ctx.path,
                    line=call.lineno,
                    col=call.col_offset,
                    code=self.code,
                    message=(
                        "pin_snapshot() without unpin_snapshot() in a finally/except "
                        "cleanup block of the same scope; pinned versions leak on error exits"
                    ),
                )


@register
class SwallowedFailureRule(Rule):
    """R006: no bare ``except:`` -- it swallows ``KeyboardInterrupt`` and
    ``SystemExit`` along with the failure it meant to catch."""

    code = "R006"
    name = "swallowed-failure"
    description = "bare except"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield Violation(
                    path=ctx.path,
                    line=node.lineno,
                    col=node.col_offset,
                    code=self.code,
                    message="bare 'except:' swallows KeyboardInterrupt/SystemExit; name the exceptions",
                )
