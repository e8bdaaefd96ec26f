"""Program model for the cache-purity rule: modules, classes, call graph.

:func:`build_program` walks a set of files/directories (the same walk
as the per-file rules), assigns each file a dotted module name by
climbing its ``__init__.py`` package chain, and builds:

* a **symbol table** per module (functions, classes, imported names);
* a **call graph**: per-function callee lists resolved conservatively
  (direct names, imported names, ``self.method`` through the MRO,
  locals and ``self.<attr>`` with inferred class types, constructor
  calls, ``yield from``).

Resolution is deliberately *under*-approximate: an edge exists only
when the target is certain.  The purity analysis built on top is
therefore quiet rather than noisy — it misses dynamic dispatch, but
every edge it does traverse is real, which is what lets a finding
carry an exact source-to-sink chain.
"""

from __future__ import annotations

import ast
import os
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint import astcache
from repro.lint.engine import iter_python_files, normalize_path

__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "ModuleInfo",
    "Program",
    "build_program",
    "module_name_for",
]


def module_name_for(path: str) -> str:
    """Dotted module name derived from the package (``__init__.py``) chain.

    ``src/repro/net/loss.py`` -> ``repro.net.loss``;
    ``fixtures/aliaspkg/core.py`` -> ``aliaspkg.core`` (the climb stops
    at the first directory without an ``__init__.py``).
    """
    path = os.path.abspath(path)
    directory, filename = os.path.split(path)
    stem = filename[:-3] if filename.endswith(".py") else filename
    parts: List[str] = [] if stem == "__init__" else [stem]
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        directory, package = os.path.split(directory)
        parts.append(package)
        if not package:  # filesystem root
            break
    return ".".join(reversed(parts)) or stem


class FunctionInfo:
    """One function/method definition (nested defs included)."""

    __slots__ = (
        "id",
        "module",
        "qualname",
        "node",
        "cls",
        "parent",
        "nested",
        "local_types",
        "_callees",
    )

    def __init__(
        self,
        module: "ModuleInfo",
        qualname: str,
        node: ast.AST,
        cls: Optional["ClassInfo"],
        parent: Optional["FunctionInfo"],
    ) -> None:
        self.id = f"{module.name}:{qualname}"
        self.module = module
        self.qualname = qualname
        self.node = node
        self.cls = cls
        self.parent = parent
        self.nested: Dict[str, "FunctionInfo"] = {}
        self.local_types: Optional[Dict[str, "ClassInfo"]] = None
        self._callees: Optional[List[Tuple["FunctionInfo", ast.Call]]] = None

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def lineno(self) -> int:
        return getattr(self.node, "lineno", 1)

    @property
    def path(self) -> str:
        return self.module.rel_path

    def params(self) -> List[str]:
        args = self.node.args
        return [
            a.arg
            for a in (args.posonlyargs + args.args + args.kwonlyargs)
        ]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<fn {self.id}>"


class ClassInfo:
    """One class definition plus its inferred ``self.<attr>`` types."""

    __slots__ = ("id", "module", "qualname", "node", "base_refs", "methods",
                 "attr_types")

    def __init__(
        self, module: "ModuleInfo", qualname: str, node: ast.ClassDef
    ) -> None:
        self.id = f"{module.name}:{qualname}"
        self.module = module
        self.qualname = qualname
        self.node = node
        self.base_refs: List[ast.expr] = list(node.bases)
        self.methods: Dict[str, FunctionInfo] = {}
        #: attr -> ClassInfo inferred from ``self.attr = Cls(...)``.
        self.attr_types: Dict[str, "ClassInfo"] = {}

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<class {self.id}>"


class ModuleInfo:
    """One parsed module in the analyzed program."""

    __slots__ = ("name", "path", "rel_path", "parsed", "functions",
                 "classes")

    def __init__(self, name: str, path: str, parsed) -> None:
        self.name = name
        self.path = path
        self.rel_path = normalize_path(path)
        self.parsed = parsed
        #: every function in the module by dotted qualname
        #: ("fn", "Cls.meth", "outer.inner").
        self.functions: Dict[str, FunctionInfo] = {}
        #: every class by dotted qualname.
        self.classes: Dict[str, ClassInfo] = {}

    @property
    def ctx(self):
        return self.parsed.ctx

    @property
    def suppressions(self) -> Dict[int, Set[str]]:
        return self.parsed.suppressions

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<module {self.name} ({self.rel_path})>"


def own_nodes(func: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs/classes."""
    stack = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
        ):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class Program:
    """The resolved whole-program view the deep analyses run over."""

    def __init__(self) -> None:
        self.modules: Dict[str, ModuleInfo] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}

    # -- construction ------------------------------------------------------
    def _add_module(self, name: str, path: str, parsed) -> ModuleInfo:
        module = ModuleInfo(name, path, parsed)
        self.modules[name] = module
        self._collect_defs(module)
        return module

    def _collect_defs(self, module: ModuleInfo) -> None:
        def visit(
            node: ast.AST,
            prefix: str,
            cls: Optional[ClassInfo],
            parent: Optional[FunctionInfo],
        ) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}{child.name}"
                    info = FunctionInfo(module, qual, child, cls, parent)
                    module.functions[qual] = info
                    self.functions[info.id] = info
                    if cls is not None and parent is None:
                        cls.methods[child.name] = info
                    if parent is not None:
                        parent.nested[child.name] = info
                    visit(child, f"{qual}.", None, info)
                elif isinstance(child, ast.ClassDef):
                    qual = f"{prefix}{child.name}"
                    cinfo = ClassInfo(module, qual, child)
                    module.classes[qual] = cinfo
                    self.classes[cinfo.id] = cinfo
                    visit(child, f"{qual}.", cinfo, None)
                else:
                    visit(child, prefix, cls, parent)

        visit(module.parsed.tree, "", None, None)

    def _infer_attr_types(self) -> None:
        """``self.attr = Cls(...)`` anywhere in a class -> attr type."""
        for cls in self.classes.values():
            for method in cls.methods.values():
                for node in own_nodes(method.node):
                    target: Optional[ast.expr] = None
                    value: Optional[ast.expr] = None
                    if isinstance(node, ast.Assign) and len(node.targets) == 1:
                        target, value = node.targets[0], node.value
                    elif isinstance(node, ast.AnnAssign) and node.value:
                        target, value = node.target, node.value
                    if not (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        continue
                    attr = target.attr
                    if isinstance(value, ast.Call):
                        resolved = self.resolve_expr(method, value.func)
                        if isinstance(resolved, ClassInfo):
                            cls.attr_types.setdefault(attr, resolved)

    # -- name resolution ---------------------------------------------------
    def resolve_dotted(self, dotted: str):
        """``pkg.mod.Sym[.sub]`` -> ModuleInfo / ClassInfo / FunctionInfo."""
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            module = self.modules.get(".".join(parts[:cut]))
            if module is None:
                continue
            rest = parts[cut:]
            if not rest:
                return module
            return self._symbol_in(module, rest)
        return None

    def _symbol_in(self, module: ModuleInfo, parts: List[str]):
        qual = ".".join(parts)
        if qual in module.functions:
            return module.functions[qual]
        if qual in module.classes:
            return module.classes[qual]
        # Follow one level of re-export (``from .core import Thing``).
        head = parts[0]
        target = self._imported_symbol(module, head)
        if target is not None and len(parts) == 1:
            return target
        if isinstance(target, ClassInfo) and len(parts) == 2:
            return target.methods.get(parts[1])
        return None

    def _imported_symbol(self, module: ModuleInfo, name: str, depth: int = 0):
        """Resolve ``name`` as an import binding of ``module``."""
        if depth > 4:
            return None
        ctx = module.ctx
        if name in ctx.from_imports:
            source, original = ctx.from_imports[name]
            source = self._absolutize(module, source)
            target_module = self.modules.get(source)
            if target_module is not None:
                if original in target_module.functions:
                    return target_module.functions[original]
                if original in target_module.classes:
                    return target_module.classes[original]
                # ``from pkg import submodule`` or a re-export chain.
                sub = self.modules.get(f"{source}.{original}")
                if sub is not None:
                    return sub
                return self._imported_symbol(
                    target_module, original, depth + 1
                )
            sub = self.modules.get(f"{source}.{original}")
            if sub is not None:
                return sub
        if name in ctx.module_aliases:
            return self.modules.get(ctx.module_aliases[name])
        return None

    def _absolutize(self, module: ModuleInfo, source: str) -> str:
        """Best-effort: map a from-import module string to program scope."""
        if source in self.modules:
            return source
        # FileContext flattens ``from . import x`` / ``from .m import x``
        # into the bare module string; resolve against the package.
        package = (
            module.name
            if module.path.endswith("__init__.py")
            else module.name.rsplit(".", 1)[0]
        )
        candidate = f"{package}.{source}" if source else package
        if candidate in self.modules:
            return candidate
        return source

    def _local_lookup(self, fn: FunctionInfo, name: str):
        """Nested defs visible from ``fn`` (its own, then enclosing)."""
        scope: Optional[FunctionInfo] = fn
        while scope is not None:
            if name in scope.nested:
                return scope.nested[name]
            scope = scope.parent
        return None

    def resolve_expr(self, fn: FunctionInfo, node: ast.AST):
        """Resolve an expression to a ModuleInfo/ClassInfo/FunctionInfo.

        Handles ``Name`` (local defs, module symbols, imports) and
        ``Attribute`` chains rooted at a module alias, an imported
        module, a class, ``self``, or a typed local/attribute.
        """
        if isinstance(node, ast.Name):
            local = self._local_lookup(fn, node.id)
            if local is not None:
                return local
            module = fn.module
            if node.id in module.functions and "." not in node.id:
                return module.functions[node.id]
            if node.id in module.classes and "." not in node.id:
                return module.classes[node.id]
            return self._imported_symbol(module, node.id)
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id in ("self", "cls"):
                if fn.cls is None and fn.parent is not None:
                    cls = fn.parent.cls
                else:
                    cls = fn.cls
                if cls is None:
                    return None
                method = self.method_of(cls, node.attr)
                if method is not None:
                    return method
                attr_cls = self.attr_type(cls, node.attr)
                return attr_cls
            resolved = self.resolve_expr(fn, base)
            if isinstance(resolved, ModuleInfo):
                if node.attr in resolved.functions:
                    return resolved.functions[node.attr]
                if node.attr in resolved.classes:
                    return resolved.classes[node.attr]
                sub = self.modules.get(f"{resolved.name}.{node.attr}")
                if sub is not None:
                    return sub
                return self._imported_symbol(resolved, node.attr)
            if isinstance(resolved, ClassInfo):
                method = self.method_of(resolved, node.attr)
                if method is not None:
                    return method
                return self.attr_type(resolved, node.attr)
        return None

    def expr_type(self, fn: FunctionInfo, node: ast.AST) -> Optional[ClassInfo]:
        """The ClassInfo an expression evaluates to, when statically known."""
        if isinstance(node, ast.Name):
            types = self._local_types(fn)
            if node.id in types:
                return types[node.id]
            if node.id == "self":
                return fn.cls or (fn.parent.cls if fn.parent else None)
            return None
        if isinstance(node, ast.Attribute):
            base_type = self.expr_type(fn, node.value)
            if base_type is not None:
                return self.attr_type(base_type, node.attr)
            return None
        if isinstance(node, ast.Call):
            resolved = self.resolve_expr(fn, node.func)
            if isinstance(resolved, ClassInfo):
                return resolved
        return None

    def _local_types(self, fn: FunctionInfo) -> Dict[str, ClassInfo]:
        """Var -> class for ``v = Cls(...)`` bindings and annotations."""
        if fn.local_types is not None:
            return fn.local_types
        types: Dict[str, ClassInfo] = {}
        args = fn.node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            if arg.annotation is not None:
                resolved = self._annotation_class(fn, arg.annotation)
                if resolved is not None:
                    types[arg.arg] = resolved
        for node in own_nodes(fn.node):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            if not isinstance(target, ast.Name):
                continue
            if isinstance(value, ast.Call):
                resolved = self.resolve_expr(fn, value.func)
                if isinstance(resolved, ClassInfo):
                    types[target.id] = resolved
                    continue
            types.pop(target.id, None)
        fn.local_types = types
        return types

    def _annotation_class(
        self, fn: FunctionInfo, annotation: ast.expr
    ) -> Optional[ClassInfo]:
        if isinstance(annotation, ast.Constant) and isinstance(
            annotation.value, str
        ):
            resolved = self.resolve_dotted(annotation.value)
            if isinstance(resolved, ClassInfo):
                return resolved
            # Bare class name in a string annotation: same module first.
            cls = fn.module.classes.get(annotation.value)
            return cls
        resolved = self.resolve_expr(fn, annotation)
        return resolved if isinstance(resolved, ClassInfo) else None

    # -- class structure ---------------------------------------------------
    def mro(self, cls: ClassInfo) -> List[ClassInfo]:
        """Linearized ancestors (simple DFS; diamonds deduplicated)."""
        seen: List[ClassInfo] = []

        def walk(current: ClassInfo) -> None:
            if current in seen:
                return
            seen.append(current)
            owner_fn = _module_scope_fn(current.module)
            for base in current.base_refs:
                resolved = self.resolve_expr(owner_fn, base)
                if isinstance(resolved, ClassInfo):
                    walk(resolved)

        walk(cls)
        return seen

    def method_of(self, cls: ClassInfo, name: str) -> Optional[FunctionInfo]:
        for ancestor in self.mro(cls):
            if name in ancestor.methods:
                return ancestor.methods[name]
        return None

    def attr_type(self, cls: ClassInfo, attr: str) -> Optional[ClassInfo]:
        for ancestor in self.mro(cls):
            if attr in ancestor.attr_types:
                return ancestor.attr_types[attr]
        return None

    # -- call graph --------------------------------------------------------
    def callees(
        self, fn: FunctionInfo
    ) -> List[Tuple[FunctionInfo, ast.Call]]:
        """Resolved outgoing call edges of ``fn`` (memoized)."""
        if fn._callees is not None:
            return fn._callees
        edges: List[Tuple[FunctionInfo, ast.Call]] = []
        for node in own_nodes(fn.node):
            if not isinstance(node, ast.Call):
                continue
            for target in self.call_targets(fn, node):
                edges.append((target, node))
        fn._callees = edges
        return edges

    def call_targets(
        self, fn: FunctionInfo, call: ast.Call
    ) -> List[FunctionInfo]:
        """Functions a call may invoke (constructors -> ``__init__``)."""
        resolved = self.resolve_expr(fn, call.func)
        targets: List[FunctionInfo] = []
        if isinstance(resolved, FunctionInfo):
            targets.append(resolved)
        elif isinstance(resolved, ClassInfo):
            init = self.method_of(resolved, "__init__")
            if init is not None:
                targets.append(init)
        elif resolved is None and isinstance(call.func, ast.Attribute):
            # Typed receiver: ``obj.m(...)`` with obj's class inferred.
            receiver = self.expr_type(fn, call.func.value)
            if receiver is not None:
                method = self.method_of(receiver, call.func.attr)
                if method is not None:
                    targets.append(method)
        return targets

    # -- traversal helpers -------------------------------------------------
    def sorted_functions(self) -> List[FunctionInfo]:
        return [self.functions[key] for key in sorted(self.functions)]


_SCOPE_FNS: Dict[str, FunctionInfo] = {}


def _module_scope_fn(module: ModuleInfo) -> FunctionInfo:
    """A pseudo-function for module-scope name resolution (base classes)."""
    fn = _SCOPE_FNS.get(module.name)
    if fn is None or fn.module is not module:
        fake = ast.parse("def _module_scope_():\n    pass").body[0]
        fn = FunctionInfo(module, "_module_scope_", fake, None, None)
        _SCOPE_FNS[module.name] = fn
    return fn


#: Last built program, keyed by (cache generation, (path, digest)...).
#: One slot is enough: the CLI and benchmark always rebuild the same
#: file set, and the digest key makes a stale hit impossible.
_last_program_key: Optional[tuple] = None
_last_program: Optional[Program] = None


def build_program(paths: Sequence[str]) -> Program:
    """Parse every python file under ``paths`` into a :class:`Program`.

    Unparseable files are skipped (the per-file pass reports RPR000
    for them); duplicate module names keep the first occurrence in walk
    order, which is deterministic.  Rebuilding over an unchanged file
    set returns the previously built program.
    """
    global _last_program_key, _last_program
    loaded = []
    for file_path in iter_python_files(paths):
        try:
            parsed = astcache.load(file_path)
        except (OSError, SyntaxError):
            continue
        loaded.append((file_path, parsed))
    key = (
        astcache.generation(),
        tuple((file_path, parsed.digest) for file_path, parsed in loaded),
    )
    if key == _last_program_key and _last_program is not None:
        return _last_program
    program = Program()
    for file_path, parsed in loaded:
        name = module_name_for(file_path)
        if name in program.modules:
            continue
        program._add_module(name, file_path, parsed)
    program._infer_attr_types()
    _last_program_key = key
    _last_program = program
    return program
