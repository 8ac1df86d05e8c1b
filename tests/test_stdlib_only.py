"""The library stays pure stdlib: every import under src/qpmut is relative
or names a standard-library module.  And it imports nothing it does not use:
each module but ``__init__.py``, which re-exports, reads every name it
imports."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qpmut"


def _non_stdlib_imports(path: Path) -> list[str]:
    """Every ``import`` and ``from`` statement of ``path``, nested ones too,
    that is neither relative nor of a standard-library module."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.split(".")[0] not in sys.stdlib_module_names:
                out.append(f"{path.name}:{node.lineno} imports {name}")
    return out


def test_library_imports_only_the_standard_library():
    paths = sorted(SRC.glob("*.py"))
    assert any(p.name == "__init__.py" for p in paths)
    assert [v for p in paths for v in _non_stdlib_imports(p)] == []


def test_stdlib_check_sees_violations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "import numpy\n"
        "from sympy import Matrix\n"
        "from . import linalg\n"
        "import os.path, json\n"
        "def f():\n"
        "    import scipy.linalg\n"
    )
    assert _non_stdlib_imports(bad) == [
        "bad.py:1 imports numpy",
        "bad.py:2 imports sympy",
        "bad.py:6 imports scipy.linalg",
    ]


def _unused_imports(path: Path) -> list[str]:
    """Every name that an ``import`` or ``from`` statement of ``path`` binds,
    nested ones too, and that no expression of ``path`` reads."""
    bound, read = [], set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
    return [f"{path.name}:{line} imports {name} unused" for name, line in bound if name not in read]


def test_library_uses_every_name_it_imports():
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    assert any(p.name == "mutation.py" for p in paths)
    assert [v for p in paths for v in _unused_imports(p)] == []


def test_unused_import_check_sees_violations(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "from __future__ import annotations\n"
        "import os.path, json\n"
        "from .errors import NotInvertibleError, Report as R\n"
        "from . import linalg\n"
        "def f():\n"
        "    import re\n"
        "    return os.sep, R, linalg.Mat\n"
    )
    assert _unused_imports(bad) == [
        "bad.py:2 imports json unused",
        "bad.py:3 imports NotInvertibleError unused",
        "bad.py:6 imports re unused",
    ]
