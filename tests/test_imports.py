"""Every module-level import in the package is used or re-exported."""

import ast
import pathlib

import isacsim

PACKAGE_DIR = pathlib.Path(isacsim.__file__).parent


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
