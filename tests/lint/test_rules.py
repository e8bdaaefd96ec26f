"""Fixture-based tests: every per-file rule fires, stays quiet, suppresses.

Each per-file rule gets three kinds of fixture source (the whole-program
rule RPR104 has its own in ``tests/lint/deep/test_purity.py``):

* positive — the hazard, expected to fire with the right code/line;
* negative — the compliant idiom, expected to stay silent;
* suppressed — the hazard plus an inline suppression, expected silent.

Fixtures are linted through :func:`repro.lint.lint_source` restricted
to the rule under test, so an unrelated rule can never mask or pollute
an assertion.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import RULES, lint_source


def findings_for(code, source, path="src/repro/fake.py"):
    return lint_source(textwrap.dedent(source), path=path, codes=[code])


# -- RPR002: wall clock ---------------------------------------------------


def test_rpr002_fires_on_time_time_and_datetime_now():
    found = findings_for(
        "RPR002",
        """
        import time
        from datetime import datetime

        def stamp():
            return time.time(), datetime.now()
        """,
    )
    assert [f.code for f in found] == ["RPR002", "RPR002"]


def test_rpr002_fires_on_perf_counter():
    found = findings_for(
        "RPR002",
        """
        import time

        def cost():
            return time.perf_counter()
        """,
    )
    assert len(found) == 1


def test_rpr002_quiet_on_env_now():
    found = findings_for(
        "RPR002",
        """
        def sample(env):
            return env.now
        """,
    )
    assert found == []


def test_rpr002_suppressed_with_disable_next():
    found = findings_for(
        "RPR002",
        """
        import time

        def cost():
            # repro-lint: disable-next=RPR002
            return time.perf_counter()
        """,
    )
    assert found == []


# -- RPR004: unsorted set iteration ---------------------------------------


def test_rpr004_fires_on_for_over_set_call():
    found = findings_for(
        "RPR004",
        """
        def merge(results, keys):
            for key in set(keys):
                results.append(key)
        """,
    )
    assert [f.code for f in found] == ["RPR004"]


def test_rpr004_fires_on_tracked_set_variable():
    found = findings_for(
        "RPR004",
        """
        def merge(results, a, b):
            pending = set(a) | set(b)
            return [results[k] for k in pending]
        """,
    )
    assert [f.code for f in found] == ["RPR004"]


def test_rpr004_fires_on_annotated_set_and_list_of_set():
    found = findings_for(
        "RPR004",
        """
        def report(rows):
            seen: set = set()
            for row in rows:
                seen.add(row)
            return list(seen)
        """,
    )
    assert [f.code for f in found] == ["RPR004"]


def test_rpr004_quiet_on_sorted_and_order_free_reducers():
    found = findings_for(
        "RPR004",
        """
        def merge(results, keys, weights):
            for key in sorted(set(keys)):
                results.append(key)
            total = sum(weights[k] for k in set(keys))
            biggest = max(len(k) for k in set(keys))
            return total, biggest
        """,
    )
    assert found == []


def test_rpr004_quiet_on_membership_and_dict_iteration():
    found = findings_for(
        "RPR004",
        """
        def merge(table, blocked):
            blocked = set(blocked)
            return [k for k, v in table.items() if k not in blocked]
        """,
    )
    assert found == []


def test_rpr004_suppressed_inline():
    found = findings_for(
        "RPR004",
        """
        def merge(results, keys):
            for key in set(keys):  # repro-lint: disable=RPR004
                results.append(key)
        """,
    )
    assert found == []


# -- cross-cutting ---------------------------------------------------------


@pytest.mark.parametrize("code", sorted(RULES))
def test_every_rule_has_code_name_severity(code):
    rule = RULES[code]()
    assert rule.code == code
    assert rule.name and rule.name == rule.name.lower()
    assert rule.severity in ("error", "warning")


def test_findings_are_sorted_and_carry_locations():
    found = lint_source(
        textwrap.dedent(
            """
            import time

            def f(keys):
                for key in set(keys):
                    print(key, time.time())
            """
        ),
        path="src/repro/fake.py",
    )
    assert found == sorted(found, key=lambda f: f.sort_key())
    assert all(f.line > 0 for f in found)
    assert {f.code for f in found} == {"RPR002", "RPR004"}
