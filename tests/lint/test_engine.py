"""Engine-level behaviour: parse errors, suppressions, walking."""

from __future__ import annotations

import os
import textwrap

from repro.lint import iter_python_files, lint_paths, lint_source
from repro.lint.engine import collect_suppressions, normalize_path

HAZARD = textwrap.dedent(
    """
    import time

    def stamp():
        return time.time()
    """
)


def test_parse_error_yields_rpr000():
    found = lint_source("def broken(:\n", path="src/repro/bad.py")
    assert [f.code for f in found] == ["RPR000"]
    assert found[0].severity == "error"


def test_collect_suppressions_same_line_next_line_and_all():
    suppressed = collect_suppressions(
        textwrap.dedent(
            """
            x = 1  # repro-lint: disable=RPR002,RPR104
            # repro-lint: disable-next=RPR002
            y = 2
            z = 3  # repro-lint: disable=all
            """
        )
    )
    assert suppressed[2] == {"RPR002", "RPR104"}
    assert suppressed[4] == {"RPR002"}
    assert suppressed[5] == {"all"}


def test_disable_all_suppresses_everything():
    found = lint_source(
        "import time\nt = time.time()  # repro-lint: disable=all\n",
        path="src/repro/fake.py",
    )
    assert found == []


def test_suppression_for_other_code_does_not_hide_finding():
    found = lint_source(
        "import time\nt = time.time()  # repro-lint: disable=RPR104\n",
        path="src/repro/fake.py",
    )
    assert [f.code for f in found] == ["RPR002"]


def test_iter_python_files_is_deterministic_and_pruned(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "c.py").write_text("x = 1\n")
    (tmp_path / "results").mkdir()
    (tmp_path / "results" / "d.py").write_text("x = 1\n")
    (tmp_path / "top.py").write_text("x = 1\n")
    files = [
        os.path.relpath(p, tmp_path)
        for p in iter_python_files([str(tmp_path)])
    ]
    assert files == ["top.py", os.path.join("pkg", "a.py"),
                     os.path.join("pkg", "b.py")]


def test_lint_paths_accepts_single_file(tmp_path):
    target = tmp_path / "hazard.py"
    target.write_text(HAZARD)
    found = lint_paths([str(target)])
    assert [f.code for f in found] == ["RPR002"]
    assert found[0].path == normalize_path(str(target))
