"""Fixtures shared by the cache tests."""

import ast

import pytest


@pytest.fixture
def parses(monkeypatch):
    """The sources ``ast.parse`` is handed, in call order."""
    seen = []
    parse = ast.parse

    def counting(source, *args, **kwargs):
        seen.append(source)
        return parse(source, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting)
    return seen
