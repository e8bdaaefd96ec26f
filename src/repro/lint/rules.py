"""The rule pack: the registry plus the rules the mutation audit kept.

Each rule is a class with a unique ``code``, a short ``name``, a
``severity``, and either a ``check`` method that yields
:class:`~repro.lint.findings.Finding` objects for one parsed file, or —
for a ``whole_program`` rule — a ``check_program`` method over every
linted file at once.  Per-file rules receive a :class:`FileContext`
(the parsed AST plus import tables and a parent map), so individual
rules stay small.

Adding a rule: subclass :class:`Rule`, decorate with
:func:`register`, document the code in docs/LINT.md (a meta-test
enforces this), add fixtures in ``tests/lint/``, and pin the real-code
mutant that only this rule catches in
``tests/lint/test_pinned_mutants.py`` (a meta-test enforces that too).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Type

from repro.lint.findings import Finding

RULES: Dict[str, Type["Rule"]] = {}

#: Engine-reserved code for files that fail to parse; not a Rule
#: subclass because it has no AST to check.
PARSE_ERROR_CODE = "RPR000"


def register(cls: Type["Rule"]) -> Type["Rule"]:
    if cls.code in RULES:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULES[cls.code] = cls
    return cls


def all_codes() -> List[str]:
    """Every checkable code, engine-reserved ones included."""
    return [PARSE_ERROR_CODE] + sorted(RULES)


class FileContext:
    """Everything a rule needs to know about one parsed file."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        #: ``import x [as y]`` → {local name: top-level dotted module}
        self.module_aliases: Dict[str, str] = {}
        #: ``from m import x [as y]`` → {local name: (module, original)}
        self.from_imports: Dict[str, Tuple[str, str]] = {}
        #: child node → parent node, for ancestor walks
        self.parents: Dict[ast.AST, ast.AST] = {}

        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.module_aliases[alias.asname or alias.name] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        node.module,
                        alias.name,
                    )

    # -- name resolution ---------------------------------------------------
    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """Resolve a Name/Attribute chain to its imported dotted form.

        ``random.random`` (via ``import random``) → ``"random.random"``;
        ``datetime.now`` (via ``from datetime import datetime``) →
        ``"datetime.datetime.now"``.  Returns None when the base name is
        not an import (a local variable, a parameter, ...).
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        base = node.id
        if base in self.from_imports:
            module, original = self.from_imports[base]
            resolved = f"{module}.{original}"
        elif base in self.module_aliases:
            resolved = self.module_aliases[base]
        else:
            return None
        return ".".join([resolved] + list(reversed(parts)))


def _own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class Rule:
    """Base class: one invariant, one code."""

    code: str = ""
    name: str = ""
    severity: str = "error"
    #: A whole-program rule sees every linted file at once through
    #: ``check_program`` (a :class:`repro.lint.deep.graph.Program`)
    #: instead of one file at a time through ``check``.
    whole_program = False

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: FileContext, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            code=self.code,
            rule=self.name,
            severity=self.severity,
            message=message,
        )


@register
class WallClockRule(Rule):
    """RPR002: wall-clock reads on the simulation/results path.

    Simulation time is ``env.now``; host time leaking into model code
    makes results irreproducible.  Telemetry that deliberately measures
    host wall time suppresses this inline with a reason.
    """

    code = "RPR002"
    name = "wall-clock"
    severity = "error"

    _BANNED = {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted_name(node.func)
            if dotted in self._BANNED:
                yield self.finding(
                    ctx,
                    node,
                    f"wall-clock call '{dotted}': simulation code must use "
                    "env.now; intentional host-time telemetry needs an "
                    "inline suppression stating why",
                )


#: Consumers whose result does not depend on iteration order.
_ORDER_FREE_CALLS = {
    "sorted", "sum", "min", "max", "any", "all", "set", "frozenset", "len",
}

_SET_METHODS = {
    "union", "intersection", "difference", "symmetric_difference",
}


@register
class UnsortedSetIterationRule(Rule):
    """RPR004: order-unstable iteration over sets.

    Python string hashing is salted per process, so set iteration
    order differs between worker processes.  Anything iterated out of
    a set and folded into results, merged registry snapshots, or
    written files breaks the ``--jobs 1`` vs ``--jobs N``
    byte-identical guarantee.  Wrap the set in ``sorted(...)`` (or
    consume it with an order-insensitive reducer).
    """

    code = "RPR004"
    name = "unsorted-set-iteration"
    severity = "error"

    def _set_names(self, scope: ast.AST) -> Set[str]:
        """Names bound to set-valued expressions within one scope."""
        names: Set[str] = set()
        for node in _own_nodes(scope):
            if isinstance(node, ast.Assign):
                value_is_set = self._is_set_expr(node.value, names)
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if value_is_set:
                            names.add(target.id)
                        else:
                            names.discard(target.id)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                annotation = ast.dump(node.annotation)
                if "'set'" in annotation or "'Set'" in annotation:
                    names.add(node.target.id)
        return names

    def _is_set_expr(self, node: ast.AST, set_names: Set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in {
                "set",
                "frozenset",
            }:
                return True
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _SET_METHODS
                and self._is_set_expr(func.value, set_names)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(
                node.left, set_names
            ) or self._is_set_expr(node.right, set_names)
        return False

    def _consumer_is_order_free(
        self, ctx: FileContext, node: ast.AST
    ) -> bool:
        """True when the iteration feeds an order-insensitive call."""
        parent = ctx.parents.get(node)
        # A comprehension's iter hangs off the comprehension node, which
        # hangs off the GeneratorExp/ListComp/...; look through those to
        # find a directly wrapping order-insensitive call.
        while isinstance(
            parent,
            (ast.comprehension, ast.GeneratorExp, ast.ListComp,
             ast.SetComp, ast.DictComp),
        ):
            if isinstance(parent, ast.SetComp):
                return True  # a set again: order does not escape
            node = parent
            parent = ctx.parents.get(parent)
        if isinstance(parent, ast.Call):
            func = parent.func
            if (
                isinstance(func, ast.Name)
                and func.id in _ORDER_FREE_CALLS
            ):
                return True
        return False

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        scopes: List[ast.AST] = [ctx.tree] + [
            node
            for node in ast.walk(ctx.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        reported: Set[Tuple[int, int]] = set()
        for scope in scopes:
            set_names = self._set_names(scope)
            for node in _own_nodes(scope):
                iter_expr = None
                if isinstance(node, ast.For):
                    iter_expr = node.iter
                elif isinstance(node, ast.comprehension):
                    iter_expr = node.iter
                elif isinstance(node, ast.Call):
                    func = node.func
                    takes_order = (
                        isinstance(func, ast.Name)
                        and func.id in {"list", "tuple", "enumerate"}
                    ) or (
                        isinstance(func, ast.Attribute)
                        and func.attr == "join"
                    )
                    if takes_order and node.args:
                        iter_expr = node.args[0]
                if iter_expr is None:
                    continue
                if not self._is_set_expr(iter_expr, set_names):
                    continue
                anchor = node if not isinstance(
                    node, ast.comprehension
                ) else iter_expr
                if self._consumer_is_order_free(ctx, anchor):
                    continue
                key = (anchor.lineno, anchor.col_offset)
                if key in reported:
                    continue
                reported.add(key)
                yield self.finding(
                    ctx,
                    anchor,
                    "iteration over a set without sorted(): set order is "
                    "process-dependent and breaks jobs=1 vs jobs=N "
                    "byte-identical results",
                )


@register
class CacheImpurityRule(Rule):
    """RPR104: a cached computation reads state outside its cache key.

    ``@memoize``'d solvers and the cells handed to ``map_cells`` /
    ``run_cells`` are replayed from cache on their parameters and
    fingerprinted code; an environment read, file read, module-global
    write or closure capture anywhere beneath them makes a hit wrong.
    The analysis lives in :mod:`repro.lint.deep.purity`.
    """

    code = "RPR104"
    name = "cache-impurity"
    severity = "error"
    whole_program = True

    def check_program(self, program) -> Iterable[Finding]:
        from repro.lint.deep.purity import analyze_purity

        return analyze_purity(program)
