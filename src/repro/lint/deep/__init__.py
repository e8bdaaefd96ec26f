"""Whole-program analysis behind the cache-purity rule (RPR104).

The per-file rules check what one file can prove.  RPR104 needs the
call graph: :mod:`.graph` builds modules, classes and resolved call
edges over the linted file set, and :mod:`.purity` walks it beneath
every ``@memoize``\\ d solver and every cacheable experiment cell,
flagging a read that escapes the cache key together with the call
chain that reaches it.  :func:`repro.lint.lint_paths` runs it in the
same pass as the per-file rules.
"""
