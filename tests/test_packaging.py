"""Package hygiene: what ``src/`` exports, what it needs at run time, and
the hypothesis profiles the suite runs under."""

import ast
import importlib
import importlib.util
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


_ARRAY_CONSTRUCTORS = frozenset(("array", "asarray", "fromiter", "stack", "vstack", "matrix"))
_COMPREHENSIONS = (ast.ListComp, ast.GeneratorExp, ast.SetComp, ast.DictComp)


def _allocation_name(node) -> bool:
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")
    return "alloc" in name or name == "p_prime"


def _reads_allocation(node, tainted: set) -> bool:
    """Whether ``node`` reads an allocation mapping across jobs: its
    ``values()``, ``items()`` or ``__getitem__``, an ``allocation[j]`` in a
    comprehension, or a local name assigned from such a read."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and n.id in tainted:
            return True
        if (
            isinstance(n, ast.Attribute) and n.attr in ("values", "items", "__getitem__")
            and _allocation_name(n.value)
        ):
            return True
        if isinstance(n, _COMPREHENSIONS) and any(
            isinstance(s, ast.Subscript) and isinstance(s.slice, ast.Name)
            and _allocation_name(s.value)
            for s in ast.walk(n)
        ):
            return True
    return False


def _allocation_lowerings(path: pathlib.Path) -> dict[str, list[str]]:
    """Per function of ``path``, every array built (``np.array``,
    ``np.fromiter``, ``layout.matrix``, ...) from an allocation mapping's
    rows, as ``line: source``."""
    found: dict[str, list[str]] = {}
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(fn, ast.FunctionDef):
            continue
        tainted: set = set()
        for n in ast.walk(fn):
            if isinstance(n, ast.Assign) and _reads_allocation(n.value, tainted):
                tainted.update(t.id for t in n.targets if isinstance(t, ast.Name))
        for n in ast.walk(fn):
            if (
                isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr in _ARRAY_CONSTRUCTORS
                and any(_reads_allocation(a, tainted) for a in n.args)
            ):
                found.setdefault(fn.name, []).append(f"{n.lineno}: {ast.unparse(n)}")
    return found


def test_only_the_allocation_value_lowers_an_allocation_mapping():
    """A ``Mapping[JobId, ResourceVector]`` becomes arrays in one place,
    ``instance/compiled.py``'s ``Allocation.lower``: no other function
    builds a matrix (or a duration vector) from an allocation's rows."""
    src = ROOT / "src" / "repro"
    found = {
        f"{path.relative_to(src)}::{fn}": lines
        for path in sorted(src.rglob("*.py"))
        for fn, lines in _allocation_lowerings(path).items()
    }
    lowering = found.pop("instance/compiled.py::lower", None)
    assert found == {}
    assert lowering  # the scan sees the one lowering


#: every per-row column of a live session: the session loop's to write
_ROW_COLUMNS = frozenset((
    "order", "index", "succ", "preds", "ext_preds", "demand", "packed",
    "duration", "key", "release", "state", "remaining", "start", "finish",
))
_MUTATORS = frozenset((
    "append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse",
    "update", "setdefault", "popitem",
))
#: the loop's three ways in for rows, and where each is called from
_ROW_ENTRIES = frozenset(("admit", "load", "compact"))


def _is_loop(node) -> bool:
    """``loop``, ``self.loop``, ``session.loop``: the session loop."""
    return (node.id if isinstance(node, ast.Name) else getattr(node, "attr", "")) == "loop"


def _row_writes(path: pathlib.Path) -> tuple[list[str], list[str]]:
    """Per ``path``: every write to a loop's row column — an assignment to
    ``loop.<column>`` or an item of it, a ``del`` of one, a mutating call
    on one, directly or through a local name bound to it — and every call
    of the loop's row entries, as ``function: source``."""
    writes, entries = [], []
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        aliases = {
            t.id
            for n in ast.walk(fn) if isinstance(n, ast.Assign)
            and isinstance(n.value, ast.Attribute) and n.value.attr in _ROW_COLUMNS
            and _is_loop(n.value.value)
            for t in n.targets if isinstance(t, ast.Name)
        }

        def column(node) -> bool:
            return (
                isinstance(node, ast.Attribute) and node.attr in _ROW_COLUMNS
                and _is_loop(node.value)
            ) or (isinstance(node, ast.Name) and node.id in aliases)

        for n in ast.walk(fn):
            targets = (
                n.targets if isinstance(n, (ast.Assign, ast.Delete))
                else [n.target] if isinstance(n, (ast.AugAssign, ast.AnnAssign))
                else []
            )
            for t in targets:
                if (isinstance(t, ast.Attribute) and column(t)) or (
                    isinstance(t, ast.Subscript) and column(t.value)
                ):
                    writes.append(f"{fn.name}: {ast.unparse(n)}")
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute):
                if n.func.attr in _MUTATORS and column(n.func.value):
                    writes.append(f"{fn.name}: {ast.unparse(n)}")
                elif n.func.attr in _ROW_ENTRIES and _is_loop(n.func.value):
                    entries.append(f"{fn.name}: {n.func.attr}")
    return writes, entries


def test_only_the_session_loop_appends_or_compacts_live_rows():
    """A live session's rows have one owner, ``engine/dispatch.py``'s
    ``IncrementalPriorityLoop``: no other module writes a row column, the
    session admits through ``admit`` and compacts with one ``compact`` call,
    restore appends through ``load``, and no second row store is left."""
    src = ROOT / "src" / "repro"
    writes, entries = {}, {}
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        name = str(path.relative_to(src))
        for retired in ("GrowableCompiledInstance", "append_batch", "admit_batch", ".gi."):
            assert retired not in text, (name, retired)
        if name == "engine/dispatch.py":
            continue
        w, e = _row_writes(path)
        if w:
            writes[name] = w
        if e:
            entries[name] = sorted(e)
    assert writes == {}
    assert entries == {
        "service/checkpoint.py": ["_restore: load"],
        "service/session.py": ["_compact: compact", "submit: admit"],
    }


def test_src_lines_counts_code_without_docstrings_comments_or_blanks():
    """``scripts/src_lines.py`` (CI's step summary): a docstring, a
    comment line and a blank line are raw lines, not code lines; a string
    that is not a docstring and every line of a split statement are."""
    spec = importlib.util.spec_from_file_location(
        "src_lines", ROOT / "scripts" / "src_lines.py"
    )
    src_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(src_lines)
    text = (
        '"""Module\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "def f(x):\n"
        '    """One line."""\n'
        "    y = (x +  # trailing comment\n"
        "         1)\n"
        '    return """not a\ndocstring"""\n'
    )
    assert src_lines.count(text) == (10, 5)


def test_tier1_profile_replays_the_same_examples():
    profile = settings.get_profile("tier1")
    assert profile.derandomize is True
    assert profile.database is None


def test_explore_profile_draws_fresh_examples():
    profile = settings.get_profile("explore")
    assert profile.derandomize is False
    assert profile.print_blob is True
    assert profile.max_examples == settings.get_profile("tier1").max_examples
