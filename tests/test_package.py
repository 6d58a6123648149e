import ast
import pathlib

import posetalg


def test_every_exported_name_exists_once():
    assert len(posetalg.__all__) == len(set(posetalg.__all__))
    missing = [name for name in posetalg.__all__ if not hasattr(posetalg, name)]
    assert missing == []


def test_no_module_of_the_package_imports_the_oracles():
    # the slow reference definitions are test oracles: no module of the
    # package, the package root included, loads them
    src = pathlib.Path(posetalg.__file__).parent
    importers = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [a.name for a in node.names]
                if isinstance(node, ast.ImportFrom):
                    names.append(node.module or "")
                if any(n.split(".")[-1] == "oracles" for n in names):
                    importers.add(path.name)
    assert importers <= {"oracles.py"}
