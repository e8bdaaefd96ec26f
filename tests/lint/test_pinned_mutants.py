"""Pinned mutants: the defect that justifies each rule, seeded in real code.

The lint audit (docs/LINT.md, "Why each rule exists") kept a rule only
if one of its mutants was caught by the rule and by nothing else CI
runs.  Each case here copies the repository file the mutant lives in,
seeds that defect, lints the copy, and expects exactly that rule at
exactly the mutated line.  The test fails if the rule is unregistered
or stops firing, and also if the repository snippet changes so the
seeded edit no longer applies (re-pin the mutant then).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import RULES, lint_paths

ROOT = Path(__file__).resolve().parents[2]

#: code -> (repo file, [(original, mutated)], text on the reported line).
#: The reported line is the first line of the last edit's mutated text
#: that contains the marker.
MUTANTS = {
    # RngStreams() with no seed draws its root from the host clock: two
    # processes get different streams, but every caller in the repo
    # passes a seed, so no render, digest or chaos run can see it.
    "RPR002": (
        "src/repro/des/rng.py",
        [
            ("import random\n", "import random\nimport time\n"),
            (
                "    def __init__(self, seed: int = 0) -> None:\n"
                "        self.seed = int(seed)\n",
                "    def __init__(self, seed: int = None) -> None:\n"
                "        self.seed = int(seed if seed is not None "
                "else time.time())\n",
            ),
        ],
        "time.time()",
    ),
    # The SSTP receiver prunes unlisted children in set order, so the
    # on_remove callbacks fire in an order that changes with the hash
    # seed.  No test prunes two children at once, and fork-started
    # pool workers share the parent's seed, so CI sees one order.
    "RPR004": (
        "src/repro/sstp/protocol.py",
        [
            (
                "for name in sorted(set(mine_parent.children) - "
                "listed_names):",
                "for name in set(mine_parent.children) - listed_names:",
            ),
        ],
        "for name in set(mine_parent.children)",
    ),
    # figure7's cell reads its loss rate from the environment: a cached
    # cell is then replayed for a different loss rate.  The golden
    # render runs with the variable unset, so it sees the default.
    "RPR104": (
        "src/repro/experiments/figure7.py",
        [
            ("from collections import Counter\n",
             "import os\nfrom collections import Counter\n"),
            (
                "        loss_rate=0.3,\n",
                '        loss_rate=float(os.environ.get("REPRO_FIGURE7_LOSS", '
                '"0.3")),\n',
            ),
        ],
        "os.environ",
    ),
}


@pytest.mark.parametrize("code", sorted(MUTANTS))
def test_pinned_mutant_is_caught_by_its_rule(code, tmp_path):
    assert code in RULES, f"{code} is not registered"
    relpath, edits, marker = MUTANTS[code]
    source = (ROOT / relpath).read_text(encoding="utf-8")
    for original, mutated in edits:
        assert source.count(original) == 1, (
            f"{relpath} no longer contains the snippet the {code} mutant "
            f"edits: {original!r}"
        )
        start = source.index(original)
        source = source.replace(original, mutated)
    offset = next(
        index
        for index, text in enumerate(mutated.splitlines())
        if marker in text
    )
    line = source.count("\n", 0, start) + 1 + offset
    target = tmp_path / relpath
    target.parent.mkdir(parents=True)
    target.write_text(source, encoding="utf-8")
    found = [(f.code, f.line) for f in lint_paths([str(target)])]
    assert found == [(code, line)]


def test_every_rule_has_a_pinned_mutant():
    assert sorted(MUTANTS) == sorted(RULES)
