"""Smoke tests for the example scripts.

Every script in ``examples/`` is importable (no side effects at import
time), and the quickstart's closed-form step runs.  No test or CI step
runs the full scripts (``make examples`` does); these tests catch API
drift cheaply.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def load(name):
    spec = importlib.util.spec_from_file_location(
        f"examples_{name}", EXAMPLES / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "path", sorted(EXAMPLES.glob("*.py")), ids=lambda path: path.stem
)
def test_example_imports_cleanly(path):
    module = load(path.stem)
    assert hasattr(module, "main")


def test_quickstart_closed_form_step_runs(capsys):
    module = load("quickstart")
    module.step1_closed_forms()
    out = capsys.readouterr().out
    assert "consistency" in out
