"""Every name a module under src/ imports is used by that module, every
name a module exports in `__all__` is bound at its top level, and every
function and method under src/ has a caller there.

No linter ships with the project, so both checks parse each module with
the standard library's `ast`. An import counts as used when its bound name
appears as a name anywhere in the module (attribute chains start from
one) or is listed in `__all__`. An import statement whose lines carry
`# noqa` is skipped: it is made for its side effect.

A top-level function counts as called when its name appears somewhere in
src/ outside its own `def`: as a name, an attribute or an imported name. A
method of a top-level class counts only as an attribute. Dunder methods
are called by Python itself and are not checked.

Files are written only by store.py: its log appends and `write_atomic`,
which every other module replaces a whole file with, so a crash never
leaves a half-written artifact. A builtin `open` call elsewhere whose mode
writes is reported.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
MODULES = sorted(SRC.rglob("*.py"))


def exported(tree):
    """The names the module's top-level `__all__` assignment lists."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


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
    used.update(exported(tree))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_import_and_honours_noqa():
    source = ("import os\nimport sys  # noqa: F401\nfrom json import (\n    dumps,  # noqa\n"
              "    loads,\n)\nfrom math import pi as PI\nfrom re import sub\n"
              "__all__ = ['PI']\nprint(os.sep)\n")
    assert unused_imports(source) == [(8, "sub")]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def unbound_exports(source):
    """The names in `__all__` that no top-level statement of the module
    binds: a def, a class, an import or an assignment target."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(sub.id for t in targets for sub in ast.walk(t)
                         if isinstance(sub, ast.Name))
    return sorted(set(exported(tree)) - bound)


def test_the_export_check_on_a_sample_source():
    source = ("import os.path\nfrom json import dumps as d\nX, (Y, Z) = 1, (2, 3)\n"
              "N: int = 4\ndef f():\n    local = 5\nclass C: pass\n"
              "__all__ = ['os', 'd', 'X', 'Y', 'Z', 'N', 'f', 'C', 'dumps', 'local']\n")
    assert unbound_exports(source) == ["dumps", "local"]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_module_binds_every_name_it_exports(path):
    assert unbound_exports(path.read_text(encoding="utf-8")) == []


def name_uses(node):
    """(names, attributes): how often each identifier appears under node as
    a name or an imported name, and as an attribute."""
    names, attributes = Counter(), Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            attributes[sub.attr] += 1
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in sub.names)
    return names, attributes


def uncalled(sources):
    """The (module, qualified name) of each top-level function and method
    in sources, a {module: source} map, that nothing in sources calls."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    names, attributes = Counter(), Counter()
    defs = []
    for module, tree in trees.items():
        used_names, used_attributes = name_uses(tree)
        names += used_names
        attributes += used_attributes
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.append((module, node.name, node, False))
            elif isinstance(node, ast.ClassDef):
                defs.extend((module, "%s.%s" % (node.name, item.name), item, True)
                            for item in node.body
                            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
    found = []
    for module, qualname, node, is_method in defs:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        own_names, own_attributes = name_uses(node)
        calls = attributes[name] - own_attributes[name]
        if not is_method:
            calls += names[name] - own_names[name]
        if calls == 0:
            found.append((module, qualname))
    return sorted(found)


def src_sources():
    return {".".join(path.relative_to(SRC).with_suffix("").parts).removesuffix(".__init__"):
            path.read_text(encoding="utf-8") for path in MODULES}


def perfbench_hook_targets():
    """The (module, attribute) each entry of perfbench/layers.py's HOOKS
    wraps. A traced run times these by name, so they stay while a hook
    names them, called in src/ or not."""
    tree = ast.parse((ROOT / "perfbench" / "layers.py").read_text(encoding="utf-8"))
    (hooks,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["HOOKS"]]
    return {(hook.elts[1].value, hook.elts[2].value) for hook in hooks.elts}


# Definitions with no caller in src/, each kept for the reason given.
ALLOWED_UNCALLED = {
    # argparse calls it on a usage error
    ("edgevitals.cli", "_Parser.error"),
    # the reader every outbound message must parse back through
    ("edgevitals.messaging", "parse_message_xml"),
    # test-side constructors: moving them into tests/ would not shrink the code
    ("edgevitals.qrs_detect", "RRSeries.from_intervals"),
    ("edgevitals.classify.schema", "dataset_to_csv"),
}


def test_the_caller_check_on_a_sample_source():
    sources = {
        "pkg": "from .a import imported\n",
        "pkg.a": (
            "def imported(): pass\n"
            "def used(): pass\n"
            "def unused(): return used()\n"
            "def recursive(n): return recursive(n - 1)\n"
            "handler = {'x': used}\n"
            "class C:\n"
            "    def __init__(self): self.m()\n"
            "    def m(self): pass\n"
            "    def by_name(self): pass\n"
            "    def only_itself(self): return self.only_itself()\n"
            "by_name = 1\n"),
    }
    assert uncalled(sources) == [("pkg.a", "C.by_name"), ("pkg.a", "C.only_itself"),
                                 ("pkg.a", "recursive"), ("pkg.a", "unused")]


def test_every_function_and_method_in_src_has_a_caller():
    allowed = ALLOWED_UNCALLED | perfbench_hook_targets()
    assert [d for d in uncalled(src_sources()) if d not in allowed] == []


def test_every_allowlisted_name_exists_and_has_no_caller():
    assert sorted(ALLOWED_UNCALLED - set(uncalled(src_sources()))) == []


def write_opens(source):
    """The line of each builtin `open` call in source whose mode can write:
    it holds "w", "a", "x" or "+", or is not a string literal."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            continue
        modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[1:2]
        mode = modes[0] if modes else ast.Constant("r")
        if not isinstance(mode, ast.Constant) or any(c in mode.value for c in "wax+"):
            lines.append(node.lineno)
    return lines


def test_the_write_check_on_a_sample_source():
    source = ("open(p)\nopen(p, 'rb')\nopen(p, 'w')\nopen(p, mode='a')\nopen(p, 'r+b')\n"
              "open(p, m)\nos.fdopen(fd, 'wb')\nopen(p, encoding='utf-8')\nopen(p, 'xb')\n")
    assert write_opens(source) == [3, 4, 5, 6, 9]


NOT_STORE = [p for p in MODULES if p != SRC / "edgevitals" / "store.py"]


@pytest.mark.parametrize("path", NOT_STORE, ids=[str(p.relative_to(SRC)) for p in NOT_STORE])
def test_only_the_store_opens_files_for_writing(path):
    assert write_opens(path.read_text(encoding="utf-8")) == []
