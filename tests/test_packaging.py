"""Package hygiene: what ``src/`` exports, what it needs at run time, and
the hypothesis profiles the suite runs under."""

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


def test_tier1_profile_replays_the_same_examples():
    profile = settings.get_profile("tier1")
    assert profile.derandomize is True
    assert profile.database is None


def test_explore_profile_draws_fresh_examples():
    profile = settings.get_profile("explore")
    assert profile.derandomize is False
    assert profile.print_blob is True
    assert profile.max_examples == settings.get_profile("tier1").max_examples
