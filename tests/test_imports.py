"""The package's imports: each one used, each third-party one declared."""

import ast
import importlib
import pathlib
import re
import sys

import pytest

import isacsim

PACKAGE_DIR = pathlib.Path(isacsim.__file__).parent
PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def unused_imports(source):
    """Names bound by module-level imports that are neither read nor in __all__."""
    tree = ast.parse(source)
    bound = {}
    exported = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read and name not in exported)


def test_no_unused_module_imports():
    found = [
        f"{path.name}:{line}: {name}"
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        for line, name in unused_imports(path.read_text())
    ]
    assert unused_imports("import os\nfrom a import b as c\n") == [
        (1, "os"), (2, "c")
    ]
    assert found == []


def third_party_imports(source):
    """(module-level, anywhere) sets of third-party top-level module names."""
    tree = ast.parse(source)

    def names(nodes):
        out = set()
        for node in nodes:
            if isinstance(node, ast.Import):
                out.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                out.add(node.module.split(".")[0])
        return out - set(sys.stdlib_module_names) - {"isacsim"}

    return names(tree.body), names(ast.walk(tree))


def requirement_names(requirements):
    return {re.match(r"[A-Za-z0-9_.-]+", r).group(0).lower().replace("-", "_")
            for r in requirements}


def test_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    required = requirement_names(project["dependencies"])
    optional = requirement_names(
        r for reqs in project.get("optional-dependencies", {}).values()
        for r in reqs)
    top, anywhere = set(), set()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        t, a = third_party_imports(path.read_text())
        top |= t
        anywhere |= a
    assert third_party_imports(
        "import os\nimport numpy.linalg\ndef f():\n    from scipy import fft\n"
    ) == ({"numpy"}, {"numpy", "scipy"})
    # module-level imports are exactly the required dependencies; imports
    # inside functions (guarded plot helpers) may also use optional ones
    assert top == required
    assert anywhere <= required | optional


def test_exports_exist():
    stale = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        name = "isacsim" if path.stem == "__init__" else f"isacsim.{path.stem}"
        module = importlib.import_module(name)
        stale += [f"{name}.{export}" for export in getattr(module, "__all__", ())
                  if not hasattr(module, export)]
    assert stale == []
