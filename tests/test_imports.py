"""Every name a module under src/ imports is used by that module.

No linter ships with the project, so the check parses each module with
the standard library's `ast`. An import counts as used when its bound name
appears as a name anywhere in the module (attribute chains start from
one) or is listed in `__all__`. An import statement whose lines carry
`# noqa` is skipped: it is made for its side effect.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(SRC.rglob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name != "*":
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import_and_honours_noqa():
    source = ("import os\nimport sys  # noqa: F401\nfrom json import (\n    dumps,  # noqa\n"
              "    loads,\n)\nfrom math import pi as PI\nfrom re import sub\n"
              "__all__ = ['PI']\nprint(os.sep)\n")
    assert unused_imports(source) == [(8, "sub")]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
