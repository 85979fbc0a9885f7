"""Import-layering contract: the declared layer DAG, enforced.

The architecture is a DAG of top-level units inside ``repro``::

    core / sampling / simulator          (domain: protocol + reference)
        -> engine_fast -> engine_vector  (accelerated engines)
        -> runtime                       (pooled sweeps, streaming merge)
        -> scenarios                     (declarative experiment layer)
        -> cli                           (composition root)

with ``analysis`` and ``seams`` as leaf utilities, and the overlay /
networking stack (``net``, ``overlays``, ``components``,
``baselines``, ``service``) deliberately **independent of the
engines** -- an overlay must bootstrap from any engine's output, so it
may depend on the domain layers only.

:data:`LAYER_CONTRACT` below is the machine-checked form: for each
unit, the complete set of sibling units it may import **at module
level**.  Function-local imports are exempt by design -- they are the
sanctioned dispatch seams (``build_simulation`` choosing an engine,
``run_repeats`` reaching the runner) and keeping them lazy is exactly
what prevents the layering from collapsing into one import cycle.

Violations render the offending edge (file, line, allowed set); any
cycle in the module-level graph renders its full path.
"""

from __future__ import annotations

import ast
from pathlib import Path
from collections.abc import Iterator

from .findings import Finding

#: unit -> sibling top-level units it may import at module scope.
LAYER_CONTRACT: dict[str, frozenset[str]] = {
    # Leaf utilities: importable by anyone, import nobody.
    "seams": frozenset(),
    "analysis": frozenset(),
    # Domain: the paper's protocol, reference engine, samplers.
    "core": frozenset(),
    "sampling": frozenset({"core"}),
    "simulator": frozenset({"core", "sampling"}),
    # Accelerated engines build on the domain (and each other, in
    # order); they never see the runtime above them.
    "engine_fast": frozenset({"core", "sampling", "simulator", "seams"}),
    "engine_vector": frozenset(
        {"core", "sampling", "simulator", "engine_fast", "seams"}
    ),
    # Runtime orchestrates engines through the simulator's seam.
    "runtime": frozenset(
        {
            "analysis",
            "core",
            "sampling",
            "simulator",
            "engine_fast",
            "engine_vector",
            "seams",
        }
    ),
    # Scenarios orchestrate both the simulated sweeps (runtime) and
    # the live chaos soaks (net) behind one declarative surface.
    "scenarios": frozenset(
        {
            "analysis",
            "core",
            "sampling",
            "simulator",
            "runtime",
            "seams",
            "net",
        }
    ),
    # Overlay / networking stack: engine-independent by contract.
    "components": frozenset({"core", "sampling", "simulator"}),
    "baselines": frozenset({"core", "sampling", "simulator"}),
    "overlays": frozenset({"core", "sampling", "simulator"}),
    "net": frozenset({"core", "sampling", "simulator"}),
    "service": frozenset(
        {"core", "sampling", "simulator", "overlays", "net"}
    ),
    # Tooling and composition roots.
    "devtools": frozenset({"seams"}),
    "cli": frozenset(
        {
            "analysis",
            "components",
            "core",
            "devtools",
            "runtime",
            "sampling",
            "scenarios",
            "seams",
            "simulator",
        }
    ),
    "__main__": frozenset({"cli"}),
    # The package root re-exports the public API; it sits above
    # everything by definition.
    "__init__": frozenset(
        {
            "analysis",
            "components",
            "core",
            "runtime",
            "sampling",
            "scenarios",
            "simulator",
        }
    ),
}

#: One import edge: (importing unit, imported unit, file, line).
Edge = tuple[str, str, str, int]


def _module_level_imports(tree: ast.Module) -> Iterator[ast.stmt]:
    """Import statements executed at module import time.

    Descends into module-level ``if``/``try`` (version and
    optional-dependency guards run at import) and class bodies, but
    never into function bodies -- those are the lazy dispatch seams
    the contract deliberately exempts.
    """
    def scan(body: list[ast.stmt]) -> Iterator[ast.stmt]:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                yield node
            elif isinstance(node, ast.ClassDef):
                yield from scan(node.body)
            elif isinstance(node, (ast.If, ast.Try)):
                yield from scan(node.body)
                yield from scan(node.orelse)
                for handler in getattr(node, "handlers", []):
                    yield from scan(handler.body)
                yield from scan(getattr(node, "finalbody", []))
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                yield from scan(node.body)

    yield from scan(tree.body)


def build_import_graph(package_root: Path) -> list[Edge]:
    """Module-level import edges between top-level units.

    *package_root* is a directory shaped like the ``repro`` package
    (the real one, or a fixture mini-tree).  Both absolute
    (``repro.x``) and relative imports resolve to their top-level
    unit; imports that leave the package are ignored.
    """
    edges: list[Edge] = []
    for path in sorted(package_root.rglob("*.py")):
        rel = path.relative_to(package_root)
        parts = rel.with_suffix("").parts
        unit = parts[0]
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(rel))
        for node in _module_level_imports(tree):
            for target in _edge_targets(node, parts):
                if target != unit:
                    edges.append((unit, target, str(rel), node.lineno))
    return edges


def _edge_targets(
    node: ast.stmt, parts: tuple[str, ...]
) -> Iterator[str]:
    if isinstance(node, ast.Import):
        for alias in node.names:
            pieces = alias.name.split(".")
            if pieces[0] == "repro" and len(pieces) > 1:
                yield pieces[1]
        return
    assert isinstance(node, ast.ImportFrom)
    module = node.module or ""
    if node.level == 0:
        pieces = module.split(".")
        if pieces[0] != "repro":
            return
        if len(pieces) > 1:
            yield pieces[1]
        else:
            # `from repro import x, y`: each name is a unit.
            for alias in node.names:
                yield alias.name
        return
    # Relative import: anchor at this file's package, walk up.
    package = ("repro",) + tuple(parts[:-1])
    anchor = package[: len(package) - (node.level - 1)]
    resolved = list(anchor[1:]) + (module.split(".") if module else [])
    if resolved:
        yield resolved[0]
    else:
        # `from .. import x` landing on the package root.
        for alias in node.names:
            yield alias.name


def _find_cycle(edges: list[Edge]) -> list[str] | None:
    graph: dict[str, set[str]] = {}
    for unit, target, _, _ in edges:
        graph.setdefault(unit, set()).add(target)
    state: dict[str, int] = {}
    stack: list[str] = []

    def visit(unit: str) -> list[str] | None:
        state[unit] = 1
        stack.append(unit)
        for target in sorted(graph.get(unit, ())):
            if state.get(target) == 1:
                return stack[stack.index(target):] + [target]
            if state.get(target, 0) == 0:
                cycle = visit(target)
                if cycle:
                    return cycle
        stack.pop()
        state[unit] = 2
        return None

    for unit in sorted(graph):
        if state.get(unit, 0) == 0:
            cycle = visit(unit)
            if cycle:
                return cycle
    return None


def check_layering(
    package_root: Path,
    contract: dict[str, frozenset[str]] | None = None,
    rel_prefix: str = "src/repro",
) -> Iterator[Finding]:
    """Check *package_root* against the layer contract.

    Emits one finding per back-edge (with the allowed set rendered)
    plus one for any module-level import cycle (with the full path).
    """
    contract = LAYER_CONTRACT if contract is None else contract
    edges = build_import_graph(package_root)
    for unit, target, rel, line in edges:
        allowed = contract.get(unit)
        path = f"{rel_prefix}/{rel}"
        if allowed is None:
            yield Finding(
                "layering",
                path,
                line,
                f"unit {unit!r} is not declared in the layer contract; "
                "add it to repro.devtools.layering.LAYER_CONTRACT",
            )
        elif target not in allowed and target in contract:
            yield Finding(
                "layering",
                path,
                line,
                f"back-edge {unit} -> {target}: layer {unit!r} may "
                f"import only {{{', '.join(sorted(allowed)) or 'nothing'}}} "
                "at module level (function-local imports are exempt)",
            )
    cycle = _find_cycle(edges)
    if cycle is not None:
        first = next(
            (e for e in edges if e[0] == cycle[0] and e[1] == cycle[1]),
            edges[0],
        )
        yield Finding(
            "layering",
            f"{rel_prefix}/{first[2]}",
            first[3],
            "module-level import cycle: " + " -> ".join(cycle),
        )
