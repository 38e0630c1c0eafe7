"""Package hygiene: what ``src/`` exports, what it needs at run time, and
the hypothesis profiles the suite runs under."""

import ast
import importlib
import pathlib
import pkgutil
import re
import subprocess
import sys

import pytest
from hypothesis import settings

import repro

ROOT = pathlib.Path(__file__).resolve().parents[1]

PACKAGES = ["repro"] + sorted(
    f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__) if m.ispkg
)


def _modules(package: str) -> list[str]:
    """``package`` and the plain modules directly inside it."""
    pkg = importlib.import_module(package)
    return [package] + [
        f"{package}.{m.name}"
        for m in pkgutil.iter_modules(pkg.__path__)
        if not m.ispkg and m.name != "__main__"
    ]


def _toml_list(text: str, key: str) -> list[str]:
    """The quoted strings of the ``key = [...]`` array in ``text``."""
    block = re.search(rf"^{key} = \[(.*?)^\]", text, re.M | re.S)
    assert block, key
    body = "\n".join(line.split("#")[0] for line in block.group(1).splitlines())
    return re.findall(r'"([^"]+)"', body)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    """A name that leaves a module leaves every ``__all__`` listing it."""
    for name in _modules(package):
        module = importlib.import_module(name)
        exported = getattr(module, "__all__", [])
        assert len(exported) == len(set(exported)), name
        missing = [n for n in exported if not hasattr(module, n)]
        assert missing == [], f"{name}.__all__ names undefined {missing}"


def test_src_runs_without_networkx():
    """networkx is the tests' graph oracle, not a runtime dependency: every
    module imports, and the bench provenance is captured, without it."""
    code = (
        "import sys, importlib, pkgutil\n"
        "sys.modules['networkx'] = None\n"
        "import repro\n"
        "for m in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
        "    if not m.name.endswith('__main__'):\n"
        "        importlib.import_module(m.name)\n"
        "from repro.bench.schema import capture_environment\n"
        "env = capture_environment()\n"
        "assert 'networkx' not in env, env\n"
        "assert {'numpy', 'scipy'} <= set(env), env\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""},
    )
    assert proc.returncode == 0, proc.stderr


def test_networkx_is_a_test_dependency_only():
    pyproject = (ROOT / "pyproject.toml").read_text()
    runtime = _toml_list(pyproject, "dependencies")
    assert not any(d.startswith("networkx") for d in runtime), runtime
    assert "networkx" in _toml_list(pyproject, "test")
    setup_py = (ROOT / "setup.py").read_text()
    install = re.search(r"install_requires=\[(.*?)\]", setup_py, re.S)
    assert install and "networkx" not in install.group(1)


def _imported_modules(path: pathlib.Path) -> set[str]:
    """Every module ``path`` imports, at top level or inside a function."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def test_the_dag_layer_imports_no_layer_above_it():
    """``repro.dag`` is the bottom of the stack: the instance lowering and
    the engine read the DAG's arrays, never the other way round (a
    function-local import counts too)."""
    above = ("repro.instance", "repro.engine")
    offenders = {
        path.name: sorted(m for m in _imported_modules(path) if m.startswith(above))
        for path in sorted((ROOT / "src" / "repro" / "dag").glob("*.py"))
    }
    assert {k: v for k, v in offenders.items() if v} == {}


def _image_arithmetic(path: pathlib.Path) -> list[str]:
    """Every shift in ``path`` by anything but a literal, and every read of
    a ``bits`` name or attribute, as ``line: source``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        shift = (ast.LShift, ast.RShift)
        if (
            isinstance(node, ast.BinOp) and isinstance(node.op, shift)
            and not isinstance(node.right, ast.Constant)
        ) or (isinstance(node, ast.AugAssign) and isinstance(node.op, shift)) or (
            isinstance(node, ast.Name) and node.id == "bits"
        ) or (isinstance(node, ast.Attribute) and node.attr == "bits"):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_only_the_layout_builds_demand_images():
    """A demand image is packed and unpacked in one place,
    ``instance/compiled.py``'s ``DemandLayout``: no other module shifts by
    the field width, or by any other variable, or reads ``bits`` at all."""
    src = ROOT / "src" / "repro"
    offenders = {
        str(path.relative_to(src)): _image_arithmetic(path)
        for path in sorted(src.rglob("*.py"))
        if path != src / "instance" / "compiled.py"
    }
    assert {k: v for k, v in offenders.items() if v} == {}


def test_tier1_profile_replays_the_same_examples():
    profile = settings.get_profile("tier1")
    assert profile.derandomize is True
    assert profile.database is None


def test_explore_profile_draws_fresh_examples():
    profile = settings.get_profile("explore")
    assert profile.derandomize is False
    assert profile.print_blob is True
    assert profile.max_examples == settings.get_profile("tier1").max_examples
