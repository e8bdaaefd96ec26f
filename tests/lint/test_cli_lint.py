"""CLI contract: paths only, exit codes, docs meta-test, repo lints clean."""

from __future__ import annotations

import os
import textwrap

import pytest

from repro.cli import main as repro_main
from repro.lint import all_codes

HAZARD = textwrap.dedent(
    """
    import time

    def stamp():
        return time.time()
    """
)

CLEAN = "VALUE = 42\n"


@pytest.fixture()
def project(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "clean.py").write_text(CLEAN)
    return tmp_path


def test_exit_zero_on_clean_tree(project, capsys):
    assert repro_main(["lint", "clean.py"]) == 0
    assert "0 error(s)" in capsys.readouterr().out


def test_exit_one_on_findings(project, capsys):
    (project / "hazard.py").write_text(HAZARD)
    assert repro_main(["lint", "hazard.py"]) == 1
    out = capsys.readouterr().out
    assert "RPR002" in out and "hazard.py:5" in out


def test_exit_two_on_missing_path(project, capsys):
    assert repro_main(["lint", "nope.py"]) == 2
    assert "no such path" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option", ["--deep", "--format=json", "--baseline=x.json"]
)
def test_lint_takes_no_options(project, capsys, option):
    with pytest.raises(SystemExit) as exit_info:
        repro_main(["lint", "clean.py", option])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_default_paths_used_when_none_given(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "hazard.py").write_text(HAZARD)
    assert repro_main(["lint"]) == 1
    assert "RPR002" in capsys.readouterr().out


def test_every_registered_code_is_documented():
    """Meta-test: docs/LINT.md has a section for every rule code."""
    root = os.path.join(os.path.dirname(__file__), "..", "..")
    with open(os.path.join(root, "docs", "LINT.md"), encoding="utf-8") as f:
        catalogue = f.read()
    for code in all_codes():
        assert code in catalogue, f"{code} missing from docs/LINT.md"


def test_repo_tree_lints_clean():
    """The acceptance gate, as a test: src/benchmarks/examples clean."""
    root = os.path.abspath(
        os.path.join(os.path.dirname(__file__), "..", "..")
    )
    cwd = os.getcwd()
    os.chdir(root)
    try:
        code = repro_main(["lint", "src", "benchmarks", "examples"])
    finally:
        os.chdir(cwd)
    assert code == 0
