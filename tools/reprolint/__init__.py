"""reprolint -- project-specific AST static analysis for the repro engine.

The engine makes promises the test suite can only spot-check: strict 2PL
with a fixed lock hierarchy, MVCC pin/unpin pairing, fsync-before-rename
checkpoints, and seeded, bit-reproducible confidence.  reprolint encodes those
invariants as lint rules so they are checked on every tree, not just on the
interleavings a test run happens to hit.

Usage (from the repository root)::

    python -m tools.reprolint src
    python -m tools.reprolint --format json src

Suppressions are inline comments on the offending line::

    lock.acquire()  # reprolint: disable=R001 -- justification here

A whole file can opt out of a rule with a comment anywhere in the file::

    # reprolint: disable-file=R003 -- justification here

Rules live in :mod:`tools.reprolint.rules`; the static lock-order check
(R002) additionally consults the committed lock-hierarchy manifest at
``tools/reprolint/lock_hierarchy.json``.
"""

from __future__ import annotations

import ast
import io
import json
import os
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

__all__ = [
    "Violation",
    "FileContext",
    "Rule",
    "register",
    "all_rules",
    "lint_source",
    "lint_paths",
    "iter_python_files",
    "default_manifest_path",
]


@dataclass(frozen=True)
class Violation:
    """One finding: ``path:line:col: CODE message``."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return "%s:%d:%d: %s %s" % (self.path, self.line, self.col, self.code, self.message)

    def to_json(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


@dataclass
class FileContext:
    """Parsed view of one source file handed to every rule."""

    path: str
    source: str
    tree: ast.Module
    # line -> set of rule codes suppressed on that line
    line_suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    # rule codes suppressed for the whole file
    file_suppressions: Set[str] = field(default_factory=set)

    @property
    def posix_path(self) -> str:
        return self.path.replace(os.sep, "/")

    def suppressed(self, code: str, line: int) -> bool:
        if code in self.file_suppressions:
            return True
        return code in self.line_suppressions.get(line, set())


class Rule:
    """Base class for lint rules.

    Subclasses set ``code``/``name``/``description`` and override either
    :meth:`check` (per-file) or :meth:`check_project` (whole-tree rules such
    as the lock-order graph, which needs every file before it can report).
    """

    code: str = ""
    name: str = ""
    description: str = ""

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        return iter(())

    def check_project(self, contexts: Sequence[FileContext], manifest: Optional[dict]) -> Iterator[Violation]:
        return iter(())


_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls: type) -> type:
    rule = rule_cls()
    if not rule.code:
        raise ValueError("rule %r has no code" % (rule_cls,))
    if rule.code in _REGISTRY:
        raise ValueError("duplicate rule code %s" % rule.code)
    _REGISTRY[rule.code] = rule
    return rule_cls


def all_rules() -> Dict[str, Rule]:
    # Import for side effect: rule registration happens at module import.
    from tools.reprolint import rules  # noqa: F401

    return dict(_REGISTRY)


_DISABLE_LINE = "reprolint: disable="
_DISABLE_FILE = "reprolint: disable-file="


def _parse_suppressions(source: str) -> "tuple[Dict[int, Set[str]], Set[str]]":
    """Extract inline suppressions from comment tokens.

    Tokenizing (rather than regexing raw lines) keeps ``#`` inside string
    literals from being misread as comments.
    """
    line_supp: Dict[int, Set[str]] = {}
    file_supp: Set[str] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            text = tok.string
            for marker, bucket in ((_DISABLE_FILE, "file"), (_DISABLE_LINE, "line")):
                idx = text.find(marker)
                if idx < 0:
                    continue
                spec = text[idx + len(marker):]
                # codes end at whitespace or the "--" justification separator
                spec = spec.split("--", 1)[0].strip()
                codes = {c.strip() for c in spec.split(",") if c.strip()}
                if bucket == "file":
                    file_supp.update(codes)
                else:
                    line_supp.setdefault(tok.start[0], set()).update(codes)
                break
    except tokenize.TokenError:
        pass
    return line_supp, file_supp


def build_context(path: str, source: str) -> FileContext:
    tree = ast.parse(source, filename=path)
    line_supp, file_supp = _parse_suppressions(source)
    return FileContext(
        path=path,
        source=source,
        tree=tree,
        line_suppressions=line_supp,
        file_suppressions=file_supp,
    )


def default_manifest_path() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "lock_hierarchy.json")


def load_manifest(path: Optional[str] = None) -> dict:
    manifest_path = path or default_manifest_path()
    with open(manifest_path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def iter_python_files(paths: Iterable[str]) -> Iterator[str]:
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                yield path
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs if d not in {"__pycache__", ".git"})
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(root, name)


@dataclass
class LintResult:
    violations: List[Violation]
    suppressed: int
    checked_files: int

    def to_json(self) -> Dict[str, object]:
        return {
            "violations": [v.to_json() for v in self.violations],
            "suppressed": self.suppressed,
            "checked_files": self.checked_files,
        }


def _apply_suppressions(
    findings: Iterable[Violation], contexts: Dict[str, FileContext]
) -> "tuple[List[Violation], int]":
    kept: List[Violation] = []
    suppressed = 0
    for violation in findings:
        ctx = contexts.get(violation.path)
        if ctx is not None and ctx.suppressed(violation.code, violation.line):
            suppressed += 1
        else:
            kept.append(violation)
    return kept, suppressed


def lint_contexts(
    contexts: Sequence[FileContext],
    rules: Optional[Dict[str, Rule]] = None,
    manifest: Optional[dict] = None,
) -> LintResult:
    active = rules if rules is not None else all_rules()
    if manifest is None:
        manifest = load_manifest()
    by_path = {ctx.path: ctx for ctx in contexts}
    findings: List[Violation] = []
    for rule in active.values():
        for ctx in contexts:
            findings.extend(rule.check(ctx))
        findings.extend(rule.check_project(contexts, manifest))
    kept, suppressed = _apply_suppressions(findings, by_path)
    kept.sort(key=lambda v: (v.path, v.line, v.col, v.code))
    return LintResult(violations=kept, suppressed=suppressed, checked_files=len(contexts))


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Dict[str, Rule]] = None,
    manifest: Optional[dict] = None,
) -> List[Violation]:
    """Lint one in-memory source blob (test/fixture entry point)."""
    ctx = build_context(path, source)
    return lint_contexts([ctx], rules=rules, manifest=manifest).violations


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Dict[str, Rule]] = None,
    manifest: Optional[dict] = None,
) -> LintResult:
    contexts: List[FileContext] = []
    for file_path in iter_python_files(paths):
        with open(file_path, "r", encoding="utf-8") as handle:
            source = handle.read()
        contexts.append(build_context(file_path, source))
    return lint_contexts(contexts, rules=rules, manifest=manifest)
