"""Static lock-acquisition-order analysis for R002.

Builds a syntactic lock-order graph from ``engine/`` + ``db.py``:

- ``with <lockish>:`` blocks and raw ``.acquire()``/``.release()`` calls
  maintain a per-function held-set (with local alias resolution, e.g.
  ``cond = self._gc_cond``).
- ``LockManager`` calls (``acquire_shared``/``acquire_shared_all``/
  ``acquire_exclusive``) map to the logical nodes ``lockmgr:__store_gate__`` and ``lockmgr:<table>``.
- ``with <something>_released(X):`` temporarily removes ``X`` from the held
  set, modelling the scoped-release pattern used by the group-commit leader.
- Same-class ``self.method()`` calls propagate the callee's acquired-lock
  summary (computed to a fixpoint), so e.g. ``prepare_checkpoint`` run while
  holding the store gate contributes gate->checkpoint_lock edges.

Every acquired node must appear in the committed manifest
(``lock_hierarchy.json``); every edge must go from a lower rank to a higher
rank; and the merged graph must be acyclic.  The runtime sanitizer
(``repro.engine.sanitizer``) checks the same property on actually observed
acquisitions.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from tools.reprolint import FileContext, Violation
from tools.reprolint.rules import attr_text, is_lockish, last_attr

Site = Tuple[str, int]

_GATE_NAMES = {"STORE_GATE", "__store_gate__"}
_GATE_NODE = "lockmgr:__store_gate__"
_TABLE_NODE = "lockmgr:<table>"

_ACQUIRE_METHODS = {"acquire"}
_RELEASE_METHODS = {"release"}
_LOCKMGR_ACQUIRE = {"acquire_shared", "acquire_shared_all", "acquire_exclusive"}
_LOCKMGR_RELEASE = {"release_shared", "release_exclusive"}


def _applies(ctx: FileContext) -> bool:
    path = ctx.posix_path
    return "engine/" in path or path.endswith("/db.py") or path == "db.py"


def _call_name(call: ast.Call) -> Optional[str]:
    if isinstance(call.func, ast.Attribute):
        return call.func.attr
    if isinstance(call.func, ast.Name):
        return call.func.id
    return None


class _FunctionWalker:
    """Symbolic, block-sequential walk of one function body."""

    def __init__(self, path: str, cls_name: Optional[str], params: Optional[Set[str]] = None):
        self.path = path
        self.cls_name = cls_name
        self.params = params or set()
        self.aliases: Dict[str, str] = {}
        self.held: List[str] = []
        self.edges: Dict[Tuple[str, str], Site] = {}
        self.acquired: Dict[str, Site] = {}
        # (callee_name, is_self_call, held_snapshot, site)
        self.calls: List[Tuple[str, bool, Tuple[str, ...], Site]] = []

    # -- expression helpers ------------------------------------------------
    def _resolve(self, node: ast.AST) -> Optional[str]:
        text = attr_text(node)
        if text is None:
            return None
        head, _, rest = text.partition(".")
        resolved = self.aliases.get(head)
        if resolved:
            return resolved + ("." + rest if rest else "")
        return text

    def _lock_node(self, node: ast.AST) -> Optional[str]:
        text = self._resolve(node)
        if text is None or not is_lockish(text):
            return None
        if "." not in text and text in self.params:
            # A bare parameter has no static lock identity; the caller's
            # alias (e.g. cond = self._gc_cond) carries the real node.
            return None
        return last_attr(text)

    def _lockmgr_node(self, call: ast.Call) -> str:
        if not call.args:
            return _TABLE_NODE
        arg = call.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return _GATE_NODE if arg.value == "__store_gate__" else _TABLE_NODE
        text = self._resolve(arg)
        if text and last_attr(text) in _GATE_NAMES:
            return _GATE_NODE
        return _TABLE_NODE

    # -- held-set bookkeeping ----------------------------------------------
    def _acquire(self, node: str, site_node: ast.AST) -> None:
        site = (self.path, getattr(site_node, "lineno", 1))
        self.acquired.setdefault(node, site)
        for holder in self.held:
            if holder != node:
                self.edges.setdefault((holder, node), site)
        self.held.append(node)

    def _release(self, node: str) -> None:
        for idx in range(len(self.held) - 1, -1, -1):
            if self.held[idx] == node:
                del self.held[idx]
                return

    # -- call handling ------------------------------------------------------
    def _handle_call(self, call: ast.Call) -> None:
        func = call.func
        if isinstance(func, ast.Attribute):
            attr = func.attr
            if attr in _ACQUIRE_METHODS:
                node = self._lock_node(func.value)
                if node:
                    self._acquire(node, call)
                return
            if attr in _RELEASE_METHODS:
                node = self._lock_node(func.value)
                if node:
                    self._release(node)
                return
            if attr in _LOCKMGR_ACQUIRE:
                self._acquire(self._lockmgr_node(call), call)
                return
            if attr in _LOCKMGR_RELEASE:
                self._release(self._lockmgr_node(call))
                return
            if attr == "release_all":
                self.held = [h for h in self.held if not h.startswith("lockmgr:")]
                return
            if isinstance(func.value, ast.Name) and func.value.id == "self" and self.held:
                self.calls.append(
                    (attr, True, tuple(self.held), (self.path, call.lineno))
                )
            return
        if isinstance(func, ast.Name) and self.held:
            self.calls.append(
                (func.id, False, tuple(self.held), (self.path, call.lineno))
            )

    def _scan_expr(self, expr: Optional[ast.AST]) -> None:
        if expr is None:
            return
        stack: List[ast.AST] = [expr]
        while stack:
            node = stack.pop()
            if isinstance(node, ast.Lambda):
                continue
            if isinstance(node, ast.Call):
                self._handle_call(node)
            stack.extend(ast.iter_child_nodes(node))

    def _scan_stmt_exprs(self, stmt: ast.stmt) -> None:
        for child in ast.iter_child_nodes(stmt):
            if not isinstance(child, (ast.stmt, ast.ExceptHandler)):
                self._scan_expr(child)

    # -- statement walk ------------------------------------------------------
    def process_block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self.process_stmt(stmt)

    def process_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            pushed: List[str] = []
            removed: List[str] = []
            for item in stmt.items:
                ctx_expr = item.context_expr
                node = self._lock_node(ctx_expr)
                if node is not None:
                    self._acquire(node, ctx_expr)
                    pushed.append(node)
                    continue
                if isinstance(ctx_expr, ast.Call):
                    name = _call_name(ctx_expr)
                    if name and ("released" in name or "unlocked" in name):
                        # scoped-release wrapper: the named locks are NOT held
                        # inside this block
                        for arg in ctx_expr.args:
                            arg_node = self._lock_node(arg)
                            if arg_node and arg_node in self.held:
                                self._release(arg_node)
                                removed.append(arg_node)
                        continue
                self._scan_expr(ctx_expr)
            self.process_block(stmt.body)
            for node in reversed(pushed):
                self._release(node)
            for node in removed:
                self.held.append(node)
            return
        if isinstance(stmt, ast.Try):
            self.process_block(stmt.body)
            for handler in stmt.handlers:
                self.process_block(list(handler.body))
            self.process_block(stmt.orelse)
            self.process_block(stmt.finalbody)
            return
        if isinstance(stmt, ast.If):
            self._scan_expr(stmt.test)
            self.process_block(stmt.body)
            self.process_block(stmt.orelse)
            return
        if isinstance(stmt, ast.While):
            self._scan_expr(stmt.test)
            self.process_block(stmt.body)
            self.process_block(stmt.orelse)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._scan_expr(stmt.iter)
            self.process_block(stmt.body)
            self.process_block(stmt.orelse)
            return
        if isinstance(stmt, ast.Assign):
            self._scan_expr(stmt.value)
            if (
                len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and attr_text(stmt.value) is not None
            ):
                resolved = self._resolve(stmt.value)
                if resolved:
                    self.aliases[stmt.targets[0].id] = resolved
            return
        self._scan_stmt_exprs(stmt)


def _iter_functions(
    tree: ast.Module,
) -> Iterator[Tuple[Optional[str], ast.AST]]:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield None, node
        elif isinstance(node, ast.ClassDef):
            for sub in ast.walk(node):
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, sub


def check_lock_hierarchy(
    contexts: Sequence[FileContext], manifest: dict, code: str
) -> List[Violation]:
    ranks: Dict[str, int] = dict(manifest.get("ranks", {}))
    walkers: List[_FunctionWalker] = []
    # key: (class_name_or_None:file, fn_name) -> walker
    by_key: Dict[Tuple[str, str], _FunctionWalker] = {}
    for ctx in contexts:
        if not _applies(ctx):
            continue
        for cls_name, fn in _iter_functions(ctx.tree):
            arg_spec = fn.args  # type: ignore[attr-defined]
            params = {
                a.arg
                for a in (
                    list(arg_spec.posonlyargs)
                    + list(arg_spec.args)
                    + list(arg_spec.kwonlyargs)
                )
            }
            if arg_spec.vararg:
                params.add(arg_spec.vararg.arg)
            if arg_spec.kwarg:
                params.add(arg_spec.kwarg.arg)
            walker = _FunctionWalker(ctx.path, cls_name, params)
            walker.process_block(list(fn.body))  # type: ignore[arg-type]
            walkers.append(walker)
            scope = cls_name if cls_name is not None else "module:" + ctx.path
            by_key[(scope, fn.name)] = walker  # type: ignore[attr-defined]

    # fixpoint over same-class / same-module call summaries
    summaries: Dict[Tuple[str, str], Set[str]] = {
        key: set(w.acquired) for key, w in by_key.items()
    }
    changed = True
    while changed:
        changed = False
        for key, walker in by_key.items():
            scope = key[0]
            mod_scope = "module:" + walker.path
            for name, is_self, _held, _site in walker.calls:
                callee = (scope, name) if is_self else (mod_scope, name)
                callee_summary = summaries.get(callee)
                if callee_summary and not callee_summary <= summaries[key]:
                    summaries[key].update(callee_summary)
                    changed = True

    edges: Dict[Tuple[str, str], Site] = {}
    acquired: Dict[str, Site] = {}
    for walker in walkers:
        scope = walker.cls_name if walker.cls_name is not None else "module:" + walker.path
        for node, site in walker.acquired.items():
            acquired.setdefault(node, site)
        for edge, site in walker.edges.items():
            edges.setdefault(edge, site)
        mod_scope = "module:" + walker.path
        for name, is_self, held, site in walker.calls:
            callee = (scope, name) if is_self else (mod_scope, name)
            for node in sorted(summaries.get(callee, ())):
                acquired.setdefault(node, site)
                for holder in held:
                    if holder != node:
                        edges.setdefault((holder, node), site)

    violations: List[Violation] = []
    for node, (path, line) in sorted(acquired.items(), key=lambda kv: kv[1]):
        if node not in ranks:
            violations.append(
                Violation(
                    path=path,
                    line=line,
                    col=0,
                    code=code,
                    message=(
                        "lock node '%s' is not in the lock-hierarchy manifest; "
                        "assign it a rank in tools/reprolint/lock_hierarchy.json" % node
                    ),
                )
            )
    for (src, dst), (path, line) in sorted(edges.items(), key=lambda kv: kv[1]):
        if src in ranks and dst in ranks and ranks[src] >= ranks[dst]:
            violations.append(
                Violation(
                    path=path,
                    line=line,
                    col=0,
                    code=code,
                    message=(
                        "lock order violation: '%s' (rank %d) acquired while holding "
                        "'%s' (rank %d); manifest requires strictly increasing ranks"
                        % (dst, ranks[dst], src, ranks[src])
                    ),
                )
            )

    cycle = _find_cycle({edge for edge in edges})
    if cycle:
        path, line = edges[(cycle[0], cycle[1])] if (cycle[0], cycle[1]) in edges else ("<graph>", 1)
        violations.append(
            Violation(
                path=path,
                line=line,
                col=0,
                code=code,
                message="lock-order cycle: " + " -> ".join(cycle),
            )
        )
    return violations


def _find_cycle(edges: Set[Tuple[str, str]]) -> Optional[List[str]]:
    graph: Dict[str, List[str]] = {}
    for src, dst in sorted(edges):
        graph.setdefault(src, []).append(dst)
    WHITE, GREY, BLACK = 0, 1, 2
    color: Dict[str, int] = {}
    stack_path: List[str] = []

    def visit(node: str) -> Optional[List[str]]:
        color[node] = GREY
        stack_path.append(node)
        for nxt in graph.get(node, ()):
            state = color.get(nxt, WHITE)
            if state == GREY:
                idx = stack_path.index(nxt)
                return stack_path[idx:] + [nxt]
            if state == WHITE:
                found = visit(nxt)
                if found:
                    return found
        stack_path.pop()
        color[node] = BLACK
        return None

    for start in sorted(graph):
        if color.get(start, WHITE) == WHITE:
            found = visit(start)
            if found:
                return found
    return None
