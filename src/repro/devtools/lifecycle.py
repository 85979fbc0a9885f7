"""Resource-lifecycle lint: no leaked segments, no leaked pools.

A ``SharedMemory(create=True)`` segment that outlives its creator is a
``/dev/shm`` leak that is only noticed after the fact, and a
``ProcessPoolExecutor`` without shutdown strands worker processes.
This pass checks the guarantee at the AST level: every tracked
constructor call must be *guarded in the function that makes it* --

* as a ``with`` context manager,
* inside (or as the statement immediately before) a ``try`` that has
  a ``finally``, or
* by **ownership transfer**: the resource (or an object wrapping it)
  is returned to the caller, as in an executor factory lambda -- the
  obligation moves with the value.

Anything else is a leak on the first exception between construction
and cleanup.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from .findings import Finding, SourceFile

#: Scope boundaries: construction inside these is audited as its own
#: scope (lambdas transfer ownership by construction -- their body is
#: their return value).
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _scoped_walk(body: list[ast.stmt]) -> Iterator[ast.AST]:
    """Walk *body* without descending into nested function scopes."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, _SCOPES):
            # Yield the boundary but never its interior: nested
            # functions are audited as their own scopes.
            continue
        for child in ast.iter_child_nodes(node):
            stack.append(child)


def _is_tracked(node: ast.Call) -> str | None:
    """The tracked-resource label for *node*, or ``None``."""
    func = node.func
    name = None
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    if name == "ProcessPoolExecutor":
        return "ProcessPoolExecutor"
    if name == "SharedMemory":
        for keyword in node.keywords:
            if (
                keyword.arg == "create"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is True
            ):
                return "SharedMemory(create=True)"
    return None


class _ScopeAuditor:
    """Guard analysis for one function body (or the module body)."""

    def __init__(self, src: SourceFile, body: list[ast.stmt], label: str):
        self.src = src
        self.body = body
        self.label = label
        self.parents: dict[int, ast.AST] = {}
        self.returned_names: set[str] = set()
        for node in _scoped_walk(body):
            if not isinstance(node, _SCOPES):
                for child in ast.iter_child_nodes(node):
                    self.parents[id(child)] = node
            if isinstance(node, ast.Return) and node.value is not None:
                for leaf in ast.walk(node.value):
                    if isinstance(leaf, ast.Name):
                        self.returned_names.add(leaf.id)

    def _ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parents.get(id(node))
        while current is not None:
            yield current
            current = self.parents.get(id(current))

    def _statement_of(self, node: ast.AST) -> ast.stmt | None:
        """The innermost statement containing *node*."""
        if isinstance(node, ast.stmt):
            return node
        for ancestor in self._ancestors(node):
            if isinstance(ancestor, ast.stmt):
                return ancestor
        return None

    def _next_sibling(self, stmt: ast.stmt) -> ast.stmt | None:
        parent = self.parents.get(id(stmt))
        blocks = (
            [self.body]
            if parent is None
            else [
                getattr(parent, attr, None)
                for attr in ("body", "orelse", "finalbody")
            ]
        )
        for block in blocks:
            if isinstance(block, list) and stmt in block:
                index = block.index(stmt)
                if index + 1 < len(block):
                    return block[index + 1]
        return None

    def _is_guarded(self, call: ast.Call) -> bool:
        for ancestor in self._ancestors(call):
            # (a) `with Tracked(...) as x:` -- the call is a withitem.
            if isinstance(ancestor, ast.withitem):
                return True
            # (b) inside the body of a try that has a finally.
            if isinstance(ancestor, ast.Try) and ancestor.finalbody:
                return True
            # (c) ownership transfer: part of a return value.
            if isinstance(ancestor, ast.Return):
                return True
        stmt = self._statement_of(call)
        if stmt is None:  # pragma: no cover - calls always sit in stmts
            return False
        # (d) assignment immediately followed by try/finally
        # (`segment = SharedMemory(create=True, ...)` then `try: ...
        # finally: segment.unlink()`).
        following = self._next_sibling(stmt)
        if isinstance(following, ast.Try) and following.finalbody:
            return True
        # (e) ownership transfer through a local: the assigned name
        # appears in some return expression of this scope (e.g.
        # `segment = SharedMemory(create=True)` ... `return
        # cls(segment, ...)`).
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets
                if isinstance(stmt, ast.Assign)
                else [stmt.target]
            )
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id in self.returned_names
                ):
                    return True
        return False

    def audit(self) -> Iterator[Finding]:
        for node in _scoped_walk(self.body):
            if not isinstance(node, ast.Call):
                continue
            label = _is_tracked(node)
            if label is None:
                continue
            if not self._is_guarded(node):
                yield Finding(
                    "lifecycle",
                    self.src.rel,
                    node.lineno,
                    f"{label} in {self.label} has no cleanup guard: "
                    "wrap it in `with`, a try/finally, or return "
                    "ownership to the caller",
                )


def check_lifecycle(src: SourceFile) -> Iterator[Finding]:
    """Audit every function scope (and the module body) of *src*."""
    yield from _ScopeAuditor(src, src.tree.body, "module scope").audit()
    for node in ast.walk(src.tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _ScopeAuditor(
                src, node.body, f"{node.name}()"
            ).audit()
