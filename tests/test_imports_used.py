"""Every name a module of the package imports is used in that module.

The one exception is a name imported only so that the benchmark tracer in
perfbench/tracing.py can wrap it at that module's name: a (module, name)
wrap point. Package __init__ modules import to re-export and are skipped.
"""

import ast
import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def wrap_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(mod, attr) for mod, attr, _ in module.WRAP_POINTS if "." not in attr}


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_unused_imports_are_found():
    source = "from os import path, sep\nimport json\nprint(sep)\n"
    assert unused_imports(source) == ["path", "json"]


def test_package_modules_use_what_they_import():
    allowed = wrap_points()
    sources = [p for p in sorted((ROOT / "src" / "byzgrad").glob("*.py")) if p.name != "__init__.py"]
    assert sources
    dead = [
        f"{path.stem}: {name}"
        for path in sources
        for name in unused_imports(path.read_text(encoding="utf-8"))
        if (path.stem, name) not in allowed
    ]
    assert dead == []


def linalg_imports(source: str) -> list[str]:
    """Names a module takes from byzgrad.linalg; "linalg" if it imports the module."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "linalg":
                names += [alias.name for alias in node.names]
            else:
                names += [alias.name for alias in node.names if alias.name == "linalg"]
        elif isinstance(node, ast.Import):
            names += ["linalg" for alias in node.names if alias.name.split(".")[-1] == "linalg"]
    return names


def test_linalg_imports_are_found():
    source = (
        "from .linalg import vandermonde\nfrom byzgrad.linalg import invert\n"
        "from . import linalg, field\nimport byzgrad.linalg\nfrom .field import is_prime\n"
    )
    assert linalg_imports(source) == ["vandermonde", "invert", "linalg", "linalg"]


def test_run_path_takes_no_matrices_from_linalg():
    # The run path carries plain rows and computes its weights and attacks in
    # closed form: it takes from linalg only names the tracer wraps there.
    allowed = {
        "coding": {"solve_linear"},
        "protocol": set(),
        "adversary": {"solve_linear"},
        "harness": set(),
    }
    points = wrap_points()
    assert all((stem, name) in points for stem, names in allowed.items() for name in names)
    for stem, names in allowed.items():
        source = (ROOT / "src" / "byzgrad" / f"{stem}.py").read_text(encoding="utf-8")
        assert set(linalg_imports(source)) <= names, stem


def printed_after_import(expr: str) -> list[str]:
    """The words a fresh interpreter prints for expr after importing byzgrad from src/."""
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import byzgrad; "
        f"print({expr})"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return out.stdout.split()


def test_importing_the_package_leaves_the_checks_unloaded():
    # The certificates load when asked for, not with every run.
    path, loaded = printed_after_import("byzgrad.__file__, 'byzgrad.checks' in sys.modules")
    assert Path(path).resolve() == (ROOT / "src" / "byzgrad" / "__init__.py").resolve()
    assert loaded == "False"


def test_importing_the_package_loads_no_process_pool():
    # A sweep with jobs > 1 imports multiprocessing, which brings socket and
    # pickle with it; a single run never needs them.
    assert printed_after_import("'multiprocessing' in sys.modules") == ["False"]
