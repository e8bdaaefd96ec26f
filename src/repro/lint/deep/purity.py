"""RPR104: cache purity of memoized solvers and cacheable cells.

Both cache layers key a computation on *parameters plus fingerprinted
code* (``repro.cache``): ``@memoize`` tables key on the call arguments,
and the content-addressed store keys cells on their kwargs and the
transitive source closure.  Any input that reaches the computation
outside that key — an environment variable, a file read, mutable
module state, a closure capture — silently poisons the cache: two
processes with different surroundings share one entry.

This pass finds every **cache root**:

* functions decorated with ``@memoize`` / ``@memoize(...)``;
* cell functions passed as the callable to ``map_cells`` /
  ``run_cells`` (the cacheable execution primitive);

and walks the resolved call graph beneath each root looking for
**escaping reads**:

* ``os.environ`` / ``os.getenv`` access;
* file reads (``open``, ``.read_text()``, ``.read_bytes()``) — file
  content is not part of any cache key;
* mutable module-global state: ``global`` writes, item stores or
  mutator calls on module-level objects (reads through such state are
  then order-dependent);
* closure captures: a nested cached function reading a variable from
  its enclosing scope (captured values are invisible to the key).

``self``-attribute reads are deliberately allowed: the instance is part
of the memo key (by identity), and cached instances are expected to be
frozen.  Each finding is anchored at the escaping read and carries the
root-to-sink call chain; an intentional escape is suppressed *at the
sink* with ``# repro-lint: disable=RPR104`` plus a justification.
"""

from __future__ import annotations

import ast
import builtins
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.deep.graph import (
    FunctionInfo,
    Program,
    own_nodes,
)
from repro.lint.findings import Finding, TraceStep

__all__ = ["analyze_purity"]

#: Call-graph depth explored beneath each cache root.
_MAX_DEPTH = 6

#: Receiver methods that read file content.
_FILE_READERS = {"read_text", "read_bytes"}

#: Mutator method names on module-global objects (these mutate their
#: receiver).
_GLOBAL_MUTATORS = {
    "add",
    "append",
    "appendleft",
    "clear",
    "extend",
    "insert",
    "pop",
    "popleft",
    "register",
    "remove",
    "setdefault",
    "update",
}

_BUILTIN_NAMES = frozenset(dir(builtins))


class _Effect:
    """One escaping read inside one function."""

    __slots__ = ("kind", "node", "detail")

    def __init__(self, kind: str, node: ast.AST, detail: str) -> None:
        self.kind = kind
        self.node = node
        self.detail = detail


def _step(fn: FunctionInfo, node: ast.AST, note: str) -> TraceStep:
    return TraceStep(
        path=fn.path, line=getattr(node, "lineno", fn.lineno), note=note
    )


def _local_names(fn: FunctionInfo) -> Set[str]:
    names = set(fn.params())
    for node in own_nodes(fn.node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add((alias.asname or alias.name).split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return names


def _is_os_ref(fn: FunctionInfo, node: ast.expr, attr: str) -> bool:
    """Does ``node`` denote ``os.<attr>`` or a from-import of it?"""
    ctx = fn.module.ctx
    if isinstance(node, ast.Attribute) and node.attr == attr:
        base = node.value
        return (
            isinstance(base, ast.Name)
            and ctx.module_aliases.get(base.id) == "os"
        )
    if isinstance(node, ast.Name) and node.id == attr:
        return ctx.from_imports.get(attr, (None, None))[0] == "os"
    if isinstance(node, ast.Name):
        source, original = ctx.from_imports.get(node.id, (None, None))
        return source == "os" and original == attr
    return False


def _function_effects(program: Program, fn: FunctionInfo) -> List[_Effect]:
    effects: List[_Effect] = []
    locals_ = _local_names(fn)
    global_decls: Set[str] = set()
    for node in own_nodes(fn.node):
        if isinstance(node, ast.Global):
            global_decls.update(node.names)
    for node in own_nodes(fn.node):
        # -- environment reads.
        if isinstance(node, ast.Attribute) or isinstance(node, ast.Name):
            if _is_os_ref(fn, node, "environ"):
                effects.append(
                    _Effect(
                        "environ",
                        node,
                        "reads os.environ (not part of any cache key)",
                    )
                )
                continue
        if isinstance(node, ast.Call):
            func = node.func
            if _is_os_ref(fn, func, "getenv"):
                effects.append(
                    _Effect(
                        "environ",
                        node,
                        "reads os.getenv (not part of any cache key)",
                    )
                )
                continue
            # -- file reads.
            if (
                isinstance(func, ast.Name)
                and func.id == "open"
                and "open" not in locals_
            ):
                effects.append(
                    _Effect(
                        "file-read",
                        node,
                        "opens a file (content escapes the cache key)",
                    )
                )
                continue
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _FILE_READERS
            ):
                effects.append(
                    _Effect(
                        "file-read",
                        node,
                        f".{func.attr}() reads a file (content escapes "
                        "the cache key)",
                    )
                )
                continue
            # -- mutator call on a module-global object.
            if isinstance(func, ast.Attribute) and (
                func.attr in _GLOBAL_MUTATORS
            ):
                gname = _global_name(fn, func.value, locals_)
                if gname is not None:
                    effects.append(
                        _Effect(
                            "global-state",
                            node,
                            f"mutates module-global {gname!r} via "
                            f".{func.attr}()",
                        )
                    )
                    continue
        # -- global-statement writes and stores into globals.
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            if node.id in global_decls:
                effects.append(
                    _Effect(
                        "global-state",
                        node,
                        f"rebinds module-global {node.id!r} "
                        "(declared global)",
                    )
                )
                continue
        if isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(
            getattr(node, "ctx", None), (ast.Store, ast.Del)
        ):
            base: ast.expr = node.value
            if (
                isinstance(node, ast.Attribute)
                and isinstance(base, ast.Name)
                and base.id in ("self", "cls")
            ):
                continue  # instance state is part of the memo key
            gname = _global_name(fn, base, locals_)
            if gname is not None:
                effects.append(
                    _Effect(
                        "global-state",
                        node,
                        f"stores into module-global {gname!r}",
                    )
                )
    return effects


def _global_name(
    fn: FunctionInfo, node: ast.expr, locals_: Set[str]
) -> Optional[str]:
    """Name of the module-level object ``node`` is rooted at, if any."""
    while isinstance(node, (ast.Subscript, ast.Attribute)):
        node = node.value
    if not isinstance(node, ast.Name) or node.id in locals_:
        return None
    name = node.id
    if name in _BUILTIN_NAMES or name in ("self", "cls"):
        return None
    ctx = fn.module.ctx
    if name in ctx.module_aliases:
        return None  # module object, not mutable program state
    if name in fn.module.functions or name in fn.module.classes:
        return None
    if name in ctx.from_imports:
        source, original = ctx.from_imports[name]
        return f"{source}.{original}"
    if _bound_at_module_scope(fn.module, name):
        return name
    return None


def _bound_at_module_scope(module, name: str) -> bool:
    for stmt in module.parsed.tree.body:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == name:
                return True
            if isinstance(target, ast.Tuple):
                for element in target.elts:
                    if isinstance(element, ast.Name) and element.id == name:
                        return True
    return False


def _closure_captures(fn: FunctionInfo) -> List[_Effect]:
    """Free variables a nested cached function reads from its closure."""
    if fn.parent is None:
        return []
    enclosing: Set[str] = set()
    scope = fn.parent
    while scope is not None:
        enclosing.update(_local_names(scope))
        scope = scope.parent
    locals_ = _local_names(fn)
    effects: List[_Effect] = []
    seen: Set[str] = set()
    for node in own_nodes(fn.node):
        if not (
            isinstance(node, ast.Name)
            and isinstance(node.ctx, ast.Load)
            and node.id not in locals_
            and node.id not in _BUILTIN_NAMES
            and node.id in enclosing
            and node.id not in seen
        ):
            continue
        seen.add(node.id)
        effects.append(
            _Effect(
                "closure-capture",
                node,
                f"captures {node.id!r} from the enclosing scope "
                "(invisible to the cache key)",
            )
        )
    return effects


def _roots(program: Program) -> List[Tuple[FunctionInfo, str, ast.AST]]:
    """(function, kind, anchor node) for every cache root."""
    roots: List[Tuple[FunctionInfo, str, ast.AST]] = []
    seen: Set[str] = set()
    for fn in program.sorted_functions():
        for decorator in getattr(fn.node, "decorator_list", []):
            target = decorator
            if isinstance(target, ast.Call):
                target = target.func
            name = None
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
            if name == "memoize" and fn.id not in seen:
                seen.add(fn.id)
                roots.append((fn, "@memoize'd solver", decorator))
    for fn in program.sorted_functions():
        for node in own_nodes(fn.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name not in ("map_cells", "run_cells") or not node.args:
                continue
            cell = program.resolve_expr(fn, node.args[0])
            if isinstance(cell, FunctionInfo) and cell.id not in seen:
                seen.add(cell.id)
                roots.append((cell, "cacheable cell", node))
    return roots


def _suppressed(fn: FunctionInfo, node: ast.AST) -> bool:
    codes = fn.module.suppressions.get(getattr(node, "lineno", 0))
    return bool(codes) and ("all" in codes or "RPR104" in codes)


def analyze_purity(program: Program) -> List[Finding]:
    effect_cache: Dict[str, List[_Effect]] = {}

    def effects_of(fn: FunctionInfo) -> List[_Effect]:
        cached = effect_cache.get(fn.id)
        if cached is None:
            cached = _function_effects(program, fn)
            effect_cache[fn.id] = cached
        return cached

    findings: List[Finding] = []
    reported: Set[Tuple] = set()

    for root, root_kind, _anchor in _roots(program):
        # BFS with predecessor tracking for chain recovery.
        frontier: List[Tuple[FunctionInfo, Tuple[TraceStep, ...]]] = [
            (
                root,
                (
                    _step(
                        root,
                        root.node,
                        f"{root_kind} {root.qualname}() is cached on its "
                        "parameters",
                    ),
                ),
            )
        ]
        visited: Set[str] = set()
        depth = 0
        while frontier and depth <= _MAX_DEPTH:
            next_frontier: List[
                Tuple[FunctionInfo, Tuple[TraceStep, ...]]
            ] = []
            for fn, chain in frontier:
                if fn.id in visited:
                    continue
                visited.add(fn.id)
                fn_effects = list(effects_of(fn))
                if fn is root:
                    fn_effects.extend(_closure_captures(fn))
                for effect in fn_effects:
                    site = (
                        fn.path,
                        getattr(effect.node, "lineno", fn.lineno),
                        effect.kind,
                    )
                    if site in reported or _suppressed(fn, effect.node):
                        continue
                    reported.add(site)
                    findings.append(
                        Finding(
                            path=fn.path,
                            line=getattr(effect.node, "lineno", fn.lineno),
                            col=getattr(effect.node, "col_offset", 0),
                            code="RPR104",
                            rule="cache-impurity",
                            severity="error",
                            message=(
                                f"{effect.detail}, but this code is "
                                f"reachable from {root_kind} "
                                f"{root.qualname}() — the cached result "
                                "can then depend on state outside the "
                                "cache key"
                            ),
                            trace=chain
                            + (_step(fn, effect.node, effect.detail),),
                        )
                    )
                for callee, call_node in program.callees(fn):
                    if callee.id in visited:
                        continue
                    next_frontier.append(
                        (
                            callee,
                            chain
                            + (
                                _step(
                                    fn,
                                    call_node,
                                    f"calls {callee.qualname}()",
                                ),
                            ),
                        )
                    )
            frontier = next_frontier
            depth += 1
    findings.sort(key=Finding.sort_key)
    return findings
