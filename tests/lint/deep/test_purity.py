"""RPR104: escaping reads under memoized solvers and cacheable cells."""

from __future__ import annotations

import os
import textwrap

from repro.lint import lint_paths

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def purity_findings(paths):
    """The cache-purity rule alone over ``paths``."""
    return lint_paths(paths, codes=["RPR104"])


def _one(findings, code="RPR104"):
    matching = [f for f in findings if f.code == code]
    assert len(matching) == 1, [f.render() for f in findings]
    return matching[0]


def test_environ_read_two_calls_deep_is_flagged_with_chain():
    finding = _one(
        purity_findings([os.path.join(FIXTURES, "purepkg", "knobs.py")])
    )
    assert "os.environ" in finding.message
    assert "solve()" in finding.message
    notes = [step.note for step in finding.trace]
    assert any("is cached on its parameters" in n for n in notes)
    assert any("calls scaled()" in n for n in notes)
    assert any("calls scale_knob()" in n for n in notes)


def test_cell_file_read_is_flagged():
    finding = _one(
        purity_findings([os.path.join(FIXTURES, "purepkg", "cells.py")])
    )
    assert "opens a file" in finding.message
    assert "cacheable cell _cell()" in finding.message


def test_global_mutation_under_a_memoized_solver():
    findings = purity_findings(
        [os.path.join(FIXTURES, "purepkg", "globals_mut.py")]
    )
    assert [f.code for f in findings] == ["RPR104", "RPR104"]
    messages = " | ".join(f.message for f in findings)
    assert "_CALLS" in messages
    assert "_LAST" in messages


def test_closure_capture_in_a_memoized_closure():
    finding = _one(
        purity_findings([os.path.join(FIXTURES, "purepkg", "captures.py")])
    )
    assert "captures 'scale'" in finding.message


def test_pure_solver_is_clean():
    findings = purity_findings(
        [os.path.join(FIXTURES, "purepkg", "clean.py")]
    )
    assert findings == []


def test_justified_suppression_at_the_sink_wins():
    findings = purity_findings(
        [os.path.join(FIXTURES, "purepkg", "waived.py")]
    )
    assert findings == []


MUTANT = textwrap.dedent(
    '''\
    import os

    from repro.cache.memo import memoize


    def knob():
        return float(os.environ["KNOB"])


    @memoize()
    def solve(rho):
        return rho * knob()
    '''
)


def test_seeded_impurity_mutant_pinpoints_the_exact_chain(tmp_path):
    """Mutation test: a planted cache impurity must be reported at the
    sink with the complete root-to-sink call chain."""
    target = tmp_path / "mutant.py"
    target.write_text(MUTANT)
    findings = purity_findings([str(target)])
    (finding,) = [f for f in findings if f.code == "RPR104"]
    assert finding.line == 7  # anchored at the os.environ read
    chain = [(step.line, step.note) for step in finding.trace]
    assert [line for line, _ in chain] == [11, 12, 7]
    assert "@memoize'd solver solve()" in chain[0][1]
    assert "calls knob()" in chain[1][1]
    assert "reads os.environ" in chain[2][1]


def test_self_attribute_reads_are_not_impure(tmp_path):
    source = textwrap.dedent(
        '''\
        from repro.cache.memo import memoize


        class Table:
            def __init__(self, base):
                self.base = base

            @memoize()
            def scaled(self, x):
                return self.base * x
        '''
    )
    target = tmp_path / "method.py"
    target.write_text(source)
    findings = purity_findings([str(target)])
    assert findings == []
