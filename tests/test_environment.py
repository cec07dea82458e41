"""The environment surface of ``src/repro``: the only variables the
package reads.

Every other setting is a constructor keyword or a server flag.  The three
``REPRO_*`` variables stay because they arm process-global registries at
import time, before any constructor runs, and must reach a server started
as a child process.  ``PYTEST_CURRENT_TEST`` only tells the sanitizer it
runs under pytest.
"""

import ast
import os

import repro

ALLOWED = {"REPRO_FAULTS", "REPRO_FAULTS_SEED", "REPRO_SANITIZE", "PYTEST_CURRENT_TEST"}


def _is_environ(node):
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "environ"
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def _key(node, where):
    assert isinstance(node, ast.Constant) and isinstance(node.value, str), (
        f"{where}: environment key is not a string literal"
    )
    return node.value


def _environment_reads(tree, filename):
    """``(key, where)`` for every ``os.environ.get(K)``, ``os.environ[K]``,
    ``os.getenv(K)`` and ``K in os.environ``; any other use of
    ``os.environ`` fails, so a read cannot hide behind another spelling."""
    reads, covered = [], set()
    for node in ast.walk(tree):
        where = f"{filename}:{getattr(node, 'lineno', '?')}"
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if func.attr == "get" and _is_environ(func.value):
                reads.append((_key(node.args[0], where), where))
                covered.add(id(func.value))
            elif func.attr == "getenv" and isinstance(func.value, ast.Name) and func.value.id == "os":
                reads.append((_key(node.args[0], where), where))
        elif isinstance(node, ast.Subscript) and _is_environ(node.value):
            reads.append((_key(node.slice, where), where))
            covered.add(id(node.value))
        elif isinstance(node, ast.Compare) and len(node.ops) == 1:
            if isinstance(node.ops[0], (ast.In, ast.NotIn)) and _is_environ(node.comparators[0]):
                reads.append((_key(node.left, where), where))
                covered.add(id(node.comparators[0]))
    for node in ast.walk(tree):
        if _is_environ(node):
            assert id(node) in covered, (
                f"{filename}:{node.lineno}: os.environ used other than by key"
            )
    return reads


def test_src_reads_only_the_listed_environment_variables():
    root = os.path.dirname(repro.__file__)
    reads = []
    for directory, _, names in os.walk(root):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                with open(path, encoding="utf-8") as handle:
                    tree = ast.parse(handle.read(), path)
                reads += _environment_reads(tree, os.path.relpath(path, root))
    assert {key for key, _ in reads} == ALLOWED, sorted(reads)
    readers = {where.split(":")[0] for _, where in reads}
    assert readers == {"faults.py", os.path.join("engine", "sanitizer.py")}, sorted(reads)
