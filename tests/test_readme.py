"""README names only working library paths: every dotted ``bfpsearch.…``
path resolves from the package, every ``from bfpsearch… import …`` runs, the
package root exports exactly what README imports from it, and the library
search example runs."""

import ast
import importlib
import os
import re
import types

import pytest

import bfpsearch

from conftest import TINY4_TEXT

with open(os.path.join(os.path.dirname(__file__), "..", "README.md"), encoding="utf-8") as fh:
    README = fh.read()


def readme_imports() -> list:
    """Each ``from bfpsearch… import …`` statement of README's code spans and
    Python blocks, as source text."""
    statements = re.findall(r"`(from bfpsearch\S* import [^`]+)`", README)
    for block in re.findall(r"```python\n(.*?)```", README, re.S):
        statements += [
            ast.unparse(node) for node in ast.walk(ast.parse(block))
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "bfpsearch"
        ]
    return statements


@pytest.mark.parametrize("path", sorted(set(re.findall(r"\bbfpsearch(?:\.\w+)+", README))))
def test_dotted_path_resolves_from_the_package(path):
    # As after `import bfpsearch.<module>` for the longest module the path
    # names, then attribute by attribute from the package.
    names = path.split(".")
    for end in range(2, len(names) + 1):
        try:
            importlib.import_module(".".join(names[:end]))
        except ModuleNotFoundError:
            break
    target = bfpsearch
    for name in names[1:]:
        target = getattr(target, name)


@pytest.mark.parametrize("statement", sorted(set(readme_imports())),
                         ids=lambda text: re.sub(r"^from (\S+) import ", r"\1:", text).replace(" ", ""))
def test_import_statement_runs(statement):
    exec(statement, {})


def test_package_root_exports_what_readme_imports_from_it():
    documented = {
        alias.name
        for statement in readme_imports()
        for node in ast.parse(statement).body
        if node.module == "bfpsearch"
        for alias in node.names
    }
    exported = {
        name for name, value in vars(bfpsearch).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == documented


def test_library_use_search_example_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    (block,) = [block for block in blocks if 'load_model("tiny4.model")' in block]
    (tmp_path / "tiny4.model").write_text(TINY4_TEXT)
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(block, namespace)
    assert len(namespace["plan"].assignments) == 4
