"""The public surface: the README's library example, the exports, and the layering."""

import ast
import re
import shlex
from pathlib import Path

import pytest

import matident
from matident.cli import main

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "matident"


def test_the_readme_python_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


def test_the_readme_bench_example_prints_its_table(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    command, table = re.search(
        r"^```sh\nmatident (bench .*?)\n```\n.*?^```\n(.*?)^```",
        readme,
        flags=re.MULTILINE | re.DOTALL,
    ).groups()
    monkeypatch.chdir(tmp_path)  # the command writes --out counts.jsonl
    assert main(shlex.split(command)) == 0
    assert capsys.readouterr().out == table
    assert (tmp_path / "counts.jsonl").is_file()


@pytest.mark.parametrize("name", matident.__all__)
def test_every_exported_name_resolves(name):
    assert getattr(matident, name) is not None


def _matident_imports(module: str) -> set[str]:
    """The matident modules a module imports, by their short names."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                # `from .rings import Ring`, or `from . import rings`
                found.update([node.module] if node.module else [a.name for a in node.names])
            elif node.module and node.module.split(".")[0] == "matident":
                found.add(node.module.partition(".")[2] or "matident")
        elif isinstance(node, ast.Import):
            found.update(
                alias.name.partition(".")[2] or "matident"
                for alias in node.names
                if alias.name.split(".")[0] == "matident"
            )
    return found


def test_the_enumeration_layer_imports_no_matident_module():
    assert _matident_imports("combinatorics") == set()


def test_sampling_imports_no_evaluator_or_caller():
    imported = _matident_imports("sampling")
    assert {"matrices", "rings"} <= imported
    assert not imported & {"identities", "bench", "verify", "polarization"}


def test_the_registry_reaches_no_caller():
    assert not _matident_imports("methods") & {"bench", "cli", "verify"}


def test_polarization_imports_no_caller():
    assert not _matident_imports("polarization") & {"methods", "bench", "verify", "cli"}


def test_verify_reads_the_registry_without_bench():
    assert "bench" not in _matident_imports("verify")


def test_rings_import_no_matident_module():
    assert _matident_imports("rings") == set()


def test_bench_imports_no_caller():
    assert not _matident_imports("bench") & {"cli", "verify"}
