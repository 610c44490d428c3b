"""Documentation completeness: every public module, class and function
in the library carries a docstring (deliverable (e): doc comments on
every public item)."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"

MODULES = sorted(SRC.rglob("*.py"))


def _public_definitions(tree: ast.Module):
    """Top-level and class-level public defs (name not starting with _)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node
            if isinstance(node, ast.ClassDef):
                for child in node.body:
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if not child.name.startswith("_"):
                            yield child


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_has_docstring(path):
    tree = ast.parse(path.read_text())
    assert ast.get_docstring(tree), f"{path} has no module docstring"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_public_items_have_docstrings(path):
    tree = ast.parse(path.read_text())
    missing = []
    for node in _public_definitions(tree):
        if ast.get_docstring(node) is None:
            # property getters named like attributes still deserve docs,
            # but trivial dunder-free data accessors are tolerated when
            # a decorator marks them (e.g. dataclass-generated __init__
            # never shows up here anyway)
            missing.append(f"{node.name} (line {node.lineno})")
    assert not missing, f"{path}: undocumented public items: {missing}"


def test_api_docs_are_current(tmp_path, monkeypatch):
    """docs/api.md must match what the generator produces (regenerate
    with `python tools/gen_api_docs.py` after API changes)."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        "gen_api_docs",
        pathlib.Path(__file__).parent.parent / "tools" / "gen_api_docs.py",
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    committed = module.OUT
    assert committed.exists(), "run python tools/gen_api_docs.py"
    expected_parts = [
        module.render_package(package) for package in module.PACKAGES
    ]
    text = committed.read_text()
    for part in expected_parts:
        # the whole rendered section, so a stale signature or summary
        # fails too, not only a missing package heading
        assert part in text, (
            f"docs/api.md section {part.splitlines()[0]} is stale; "
            "run python tools/gen_api_docs.py"
        )
    # spot-check: a recently added public name is documented
    assert "autotune_run" in text
    assert "fingerprint" in text
