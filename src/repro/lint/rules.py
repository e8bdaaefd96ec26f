"""The rule pack: registry plus the RPR001…RPR009 determinism rules.

Each rule is a class with a unique ``code``, a short ``name``, a
``severity``, an optional path scope (``applies``), and a ``check``
method that yields :class:`~repro.lint.findings.Finding` objects for
one parsed file.  Rules receive a :class:`FileContext` — the parsed
AST plus import tables, a parent map, and per-scope set-variable
inference — so individual rules stay small.

Adding a rule: subclass :class:`Rule`, decorate with
:func:`register`, document the code in docs/LINT.md (a meta-test
enforces this), and add positive/negative/suppressed fixtures in
``tests/lint/``.
"""

from __future__ import annotations

import ast
import re
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
        #: every function/method definition in the module, by name.
        #: A name can be defined by several classes (e.g. ``run``), so
        #: each maps to the full candidate list.
        self.functions: Dict[str, List[ast.AST]] = {}

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
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                self.functions.setdefault(node.name, []).append(node)

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

    # -- structural helpers ------------------------------------------------
    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        seen = node
        while seen in self.parents:
            seen = self.parents[seen]
            yield seen

    def enclosing_function(
        self, node: ast.AST
    ) -> Optional[ast.AST]:
        for ancestor in self.ancestors(node):
            if isinstance(
                ancestor,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
            ):
                return ancestor
        return None


def _identifiers(node: ast.AST) -> Set[str]:
    """All Name ids and Attribute attrs appearing under ``node``."""
    found: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


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
    #: substrings of the posix path this rule is restricted to
    #: (empty = applies everywhere the engine lints)
    path_scope: Tuple[str, ...] = ()

    def applies(self, path: str) -> bool:
        if not self.path_scope:
            return True
        return any(fragment in path for fragment in self.path_scope)

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
class GlobalRandomRule(Rule):
    """RPR001: global / fixed-seed-cloned RNG instead of injected streams.

    Simulation randomness must come from ``repro.des.rng.RngStreams``
    substreams (or an explicitly injected ``random.Random``) so that
    (a) seeding reproduces a run exactly and (b) adding a draw in one
    component never perturbs another's stream.  Three shapes violate
    that:

    * calls to module-level ``random.*`` functions (the process-global
      shared generator);
    * ``from random import <fn>`` (the same generator, renamed);
    * ``random.Random(<literal>)`` inside a function body — a
      fixed-seed *clone*: every instance built through that code path
      replays the same sequence, so "independent" components are
      perfectly correlated (the historical LossModel default bug);
    * calls to module-level ``numpy.random.*`` functions (the legacy
      global ``RandomState`` — the same shared-stream hazard with a
      numpy accent);
    * un-injected ``numpy.random.default_rng()`` / ``Generator()``
      construction inside a function — no seed argument draws OS
      entropy (irreproducible), a literal seed is the fixed-seed clone
      again; derive the generator from the cell's ``RngStreams`` family
      and pass it in.
    """

    code = "RPR001"
    name = "global-rng"
    severity = "error"

    _ALLOWED = {"random.Random", "random.SystemRandom"}
    #: Generator/bit-generator constructors: flagged only when built
    #: un-injected (no arg or a literal seed) inside a function, never
    #: as module-level draws.
    _NUMPY_CTORS = {
        "numpy.random.default_rng",
        "numpy.random.Generator",
        "numpy.random.RandomState",
        "numpy.random.PCG64",
        "numpy.random.Philox",
        "numpy.random.SFC64",
        "numpy.random.MT19937",
    }

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name not in {"Random", "SystemRandom"}:
                        yield self.finding(
                            ctx,
                            node,
                            f"'from random import {alias.name}' pulls in "
                            "the process-global RNG; inject a stream from "
                            "repro.des.rng.RngStreams instead",
                        )
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.dotted_name(node.func)
            if dotted is None:
                continue
            if dotted.startswith("random.") and dotted not in self._ALLOWED:
                yield self.finding(
                    ctx,
                    node,
                    f"call to global '{dotted}' in simulation code; draw "
                    "from an injected repro.des.rng stream instead",
                )
            elif (
                dotted == "random.Random"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and ctx.enclosing_function(node) is not None
            ):
                yield self.finding(
                    ctx,
                    node,
                    "fixed-literal-seed random.Random() inside a function: "
                    "every instance replays the same stream; derive a "
                    "per-instance substream via RngStreams (see "
                    "repro.net.loss._default_rng)",
                )
            elif dotted in self._NUMPY_CTORS:
                first = node.args[0] if node.args else None
                if (
                    first is None or isinstance(first, ast.Constant)
                ) and ctx.enclosing_function(node) is not None:
                    yield self.finding(
                        ctx,
                        node,
                        f"un-injected '{dotted}' inside a function: no "
                        "seed draws OS entropy (irreproducible), a "
                        "literal seed clones one stream into every "
                        "instance; derive the generator from the cell's "
                        "RngStreams family and inject it",
                    )
            elif dotted.startswith("numpy.random."):
                yield self.finding(
                    ctx,
                    node,
                    f"call to global '{dotted}' in simulation code: the "
                    "legacy numpy global RandomState is process-shared; "
                    "draw from an injected numpy Generator derived from "
                    "repro.des.rng streams instead",
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


@register
class ProcessGeneratorRule(Rule):
    """RPR003: malformed DES process generators.

    A function handed to ``env.process(...)`` / ``Process(env, ...)``
    must be a generator that yields kernel events.  A target that never
    yields dies instantly at start (the kernel raises); a bare
    ``yield`` or a yielded literal is a non-Event the kernel rejects at
    runtime — both are statically detectable.
    """

    code = "RPR003"
    name = "process-generator"
    severity = "error"

    def _target_candidates(
        self, ctx: FileContext, call: ast.Call
    ) -> Optional[List[ast.AST]]:
        func = call.func
        is_process_method = (
            isinstance(func, ast.Attribute) and func.attr == "process"
        )
        is_process_ctor = (
            isinstance(func, ast.Name) and func.id == "Process"
        ) or (
            isinstance(func, ast.Attribute) and func.attr == "Process"
        )
        if not (is_process_method or is_process_ctor):
            return None
        index = 1 if is_process_ctor else 0
        if len(call.args) <= index:
            return None
        arg = call.args[index]
        if not isinstance(arg, ast.Call):
            return None
        target = arg.func
        if isinstance(target, ast.Name):
            return ctx.functions.get(target.id)
        # Only ``self.<method>()`` resolves within this module; a deeper
        # receiver (``self.workload.run()``) names code defined
        # elsewhere, which this single-file analysis cannot see.
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return ctx.functions.get(target.attr)
        return None

    @staticmethod
    def _yields(fn: ast.AST) -> List[ast.AST]:
        return [
            sub
            for sub in _own_nodes(fn)
            if isinstance(sub, (ast.Yield, ast.YieldFrom))
        ]

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        checked: Set[int] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            candidates = self._target_candidates(ctx, node)
            if not candidates:
                continue
            # The call names a method; several classes in the module may
            # define it.  Only flag when *no* candidate is a generator —
            # if any yields, assume the call resolves to that one.
            per_candidate = [(fn, self._yields(fn)) for fn in candidates]
            if all(not ys for _, ys in per_candidate):
                name = candidates[0].name
                if id(node) not in checked:
                    checked.add(id(node))
                    yield self.finding(
                        ctx,
                        node,
                        f"'{name}' is spawned as a DES process but never "
                        "yields: it is not a generator and the kernel "
                        "will reject it",
                    )
                continue
            for fn, yields in per_candidate:
                if not yields or id(fn) in checked:
                    continue
                checked.add(id(fn))
                for sub in yields:
                    if isinstance(sub, ast.YieldFrom):
                        continue
                    if sub.value is None:
                        yield self.finding(
                            ctx,
                            sub,
                            f"bare 'yield' in process '{fn.name}': "
                            "processes must yield kernel events "
                            "(env.timeout(...), env.event(), ...)",
                        )
                    elif isinstance(sub.value, ast.Constant):
                        yield self.finding(
                            ctx,
                            sub,
                            f"process '{fn.name}' yields the literal "
                            f"{sub.value.value!r}, which is not a kernel "
                            "event",
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
class UnguardedTraceEmitRule(Rule):
    """RPR005: tracer emits in hot paths without the precomputed guard.

    The < 3% disabled-overhead CI gate holds only because every kernel
    and channel emit sits behind a precomputed bool
    (``env._trace_kernel``, ``tr is not None and tr.packet``, a hoisted
    ``trace_*`` local) — one load and one jump when tracing is off.  An
    unguarded ``*.emit(...)`` pays argument construction on every event.
    A tracer received as a function parameter counts as guarded: the
    caller hoisted the check (e.g. ``Environment._run_instrumented``).
    """

    code = "RPR005"
    name = "unguarded-trace-emit"
    severity = "error"
    path_scope = ("repro/des/", "repro/net/")

    def _receiver_token(self, func: ast.Attribute) -> Optional[str]:
        value = func.value
        if isinstance(value, ast.Name):
            return value.id
        if isinstance(value, ast.Attribute):
            return value.attr
        return None

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute) and func.attr == "emit"
            ):
                continue
            token = self._receiver_token(func)
            guarded = False
            for ancestor in ctx.ancestors(node):
                if isinstance(
                    ancestor,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
                ):
                    # Injected-tracer contract: a parameter named like
                    # the receiver means the caller holds the guard.
                    args = getattr(ancestor, "args", None)
                    if args is not None and token is not None:
                        params = {
                            a.arg
                            for a in (
                                args.posonlyargs + args.args + args.kwonlyargs
                            )
                        }
                        if token in params:
                            guarded = True
                    break
                if not isinstance(ancestor, (ast.If, ast.IfExp)):
                    continue
                idents = _identifiers(ancestor.test)
                if token is not None and token in idents:
                    guarded = True
                    break
                if any("trace" in ident for ident in idents):
                    guarded = True
                    break
            if not guarded:
                yield self.finding(
                    ctx,
                    node,
                    "tracer emit not dominated by a precomputed trace-flag "
                    "check (e.g. 'if env._trace_kernel:'); hot-path hooks "
                    "must cost one load + one jump when tracing is off",
                )


@register
class MutableDefaultRule(Rule):
    """RPR006: mutable default arguments.

    A mutable default is created once at definition time and shared by
    every call — cross-run and cross-instance state that silently
    couples simulations.  Use ``None`` and materialise inside.
    """

    code = "RPR006"
    name = "mutable-default"
    severity = "error"

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(
            node,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
             ast.SetComp),
        ):
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            return node.func.id in {"list", "dict", "set", "bytearray"}
        return False

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if self._is_mutable(default):
                    label = getattr(node, "name", "<lambda>")
                    yield self.finding(
                        ctx,
                        default,
                        f"mutable default argument in '{label}': shared "
                        "across calls and instances; default to None and "
                        "create per call",
                    )


_TIMESTAMP_SUFFIXES = ("_at", "_time")
_TIMESTAMP_NAMES = {"now", "_now", "deadline", "timestamp", "expiry"}


@register
class FloatTimestampEqualityRule(Rule):
    """RPR007: exact == / != on simulation timestamps.

    Timestamps are accumulated floats (``env.now`` sums of delays);
    exact equality silently turns false under reordering or refactors
    that change the summation. Compare with tolerance or with ordering
    (<=, >=).
    """

    code = "RPR007"
    name = "float-timestamp-equality"
    severity = "warning"

    def _is_timestampish(self, node: ast.AST) -> bool:
        ident: Optional[str] = None
        if isinstance(node, ast.Attribute):
            ident = node.attr
        elif isinstance(node, ast.Name):
            ident = node.id
        if ident is None:
            return False
        return ident in _TIMESTAMP_NAMES or ident.endswith(
            _TIMESTAMP_SUFFIXES
        )

    def _is_inf_sentinel(self, node: ast.AST) -> bool:
        """``x == _INF`` / ``float('inf')`` is exact, not accumulated."""
        if isinstance(node, ast.Name) and "inf" in node.id.lower():
            return True
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "float"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and str(node.args[0].value).lower() in {"inf", "-inf"}
        ):
            return True
        return False

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(
                node.ops, operands[:-1], operands[1:]
            ):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if isinstance(right, ast.Constant) and right.value is None:
                    continue
                if self._is_inf_sentinel(left) or self._is_inf_sentinel(
                    right
                ):
                    continue
                if self._is_timestampish(left) or self._is_timestampish(
                    right
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "exact ==/!= on a simulation timestamp: "
                        "accumulated-float equality is fragile; compare "
                        "with ordering or a tolerance",
                    )
                    break


@register
class UnguardedSpanHookRule(Rule):
    """RPR009: span/profiler hook calls in hot paths without a guard.

    Per-record trace-fold hooks (``Invariant.feed``, ``feed_raw``) and
    the wall-time profiler (``Profiler.account``/``account_category``)
    ride the same hot paths as the tracer, and the CI overhead gate
    budgets them the same way: every call in kernel or channel code must be dominated by
    a precomputed flag check (``if self._profile is not None:``, a
    hoisted ``span``/``prof`` local test) so a run without observers
    pays one load and one jump.  As with RPR005, a builder/profiler
    received as a function parameter counts as guarded — the caller
    hoisted the check (``Environment._run_instrumented``).
    """

    code = "RPR009"
    name = "unguarded-span-hook"
    severity = "error"
    path_scope = ("repro/des/", "repro/net/")

    _HOOKS = {"feed", "feed_raw", "account", "account_category"}
    _GUARD_TOKENS = ("trace", "prof", "span")

    def _receiver_token(self, func: ast.Attribute) -> Optional[str]:
        value = func.value
        if isinstance(value, ast.Name):
            return value.id
        if isinstance(value, ast.Attribute):
            return value.attr
        return None

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in self._HOOKS
            ):
                continue
            token = self._receiver_token(func)
            guarded = False
            for ancestor in ctx.ancestors(node):
                if isinstance(
                    ancestor,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
                ):
                    args = getattr(ancestor, "args", None)
                    if args is not None and token is not None:
                        params = {
                            a.arg
                            for a in (
                                args.posonlyargs + args.args + args.kwonlyargs
                            )
                        }
                        if token in params:
                            guarded = True
                    break
                if not isinstance(ancestor, (ast.If, ast.IfExp)):
                    continue
                idents = _identifiers(ancestor.test)
                if token is not None and token in idents:
                    guarded = True
                    break
                if any(
                    guard in ident
                    for ident in idents
                    for guard in self._GUARD_TOKENS
                ):
                    guarded = True
                    break
            if not guarded:
                yield self.finding(
                    ctx,
                    node,
                    f"span/profiler hook '.{func.attr}(...)' not dominated "
                    "by a precomputed observer check (e.g. 'if "
                    "self._profile is not None:'); hot-path hooks must "
                    "cost one load + one jump when observability is off",
                )


_METRIC_NAME = re.compile(r"^repro_[a-z][a-z0-9_]*$")
_EVENT_NAME = re.compile(r"^[a-z][a-z0-9_]*$")


@register
class NamingConventionRule(Rule):
    """RPR008: metric / trace-event naming conventions.

    docs/OBSERVABILITY.md fixes the contract: instruments are
    ``repro_<noun>_<unit>`` with counters ending ``_total`` (and only
    counters), and trace event names are lower_snake_case.  Drift here
    breaks downstream dashboards and the trace schema.
    """

    code = "RPR008"
    name = "naming-convention"
    severity = "warning"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            kind: Optional[str] = None
            name_arg: Optional[ast.expr] = None
            if isinstance(func, ast.Attribute) and func.attr in {
                "counter",
                "gauge",
                "histogram",
            }:
                kind = func.attr
                if node.args:
                    name_arg = node.args[0]
            elif isinstance(func, ast.Attribute) and func.attr == "emit":
                if len(node.args) >= 2 and isinstance(
                    node.args[1], ast.Constant
                ):
                    value = node.args[1].value
                    if isinstance(value, str) and not _EVENT_NAME.match(
                        value
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            f"trace event name {value!r} is not "
                            "lower_snake_case (see docs/OBSERVABILITY.md "
                            "event taxonomy)",
                        )
                continue
            else:
                dotted = ctx.dotted_name(func)
                if dotted and dotted.startswith("repro.obs"):
                    tail = dotted.rsplit(".", 1)[-1]
                    if tail in {"Counter", "Gauge", "Histogram"}:
                        kind = tail.lower()
                        if node.args:
                            name_arg = node.args[0]
            if kind is None or not isinstance(name_arg, ast.Constant):
                continue
            value = name_arg.value
            if not isinstance(value, str):
                continue
            if not _METRIC_NAME.match(value):
                yield self.finding(
                    ctx,
                    node,
                    f"instrument name {value!r} must match "
                    "'repro_<noun>_<unit>' (docs/OBSERVABILITY.md)",
                )
            elif kind == "counter" and not value.endswith("_total"):
                yield self.finding(
                    ctx,
                    node,
                    f"counter {value!r} must end in '_total'",
                )
            elif kind != "counter" and value.endswith("_total"):
                yield self.finding(
                    ctx,
                    node,
                    f"{kind} {value!r} must not end in '_total' "
                    "(reserved for counters)",
                )
