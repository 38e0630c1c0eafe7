"""Smoke tests for the example scripts (run in-process, output checked).

Examples are part of the public surface; these tests keep them runnable as
the library evolves.  Each example's ``main()`` is imported and executed
with stdout captured, and the headline lines are asserted.
"""

import importlib.util
import pathlib
import sys


EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, capsys) -> str:
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    try:
        spec.loader.exec_module(mod)
        mod.main()
    finally:
        sys.modules.pop(spec.name, None)
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart", capsys)
        assert "makespan" in out
        assert "proven <=" in out or "<=" in out
        assert "type" in out or "cores" in out  # gantt bands

    def test_cholesky_workflow(self, capsys):
        out = run_example("cholesky_workflow", capsys)
        assert "two-phase (ours)" in out
        assert "LP lower bound" in out
        assert "tetris" in out

    def test_cluster_moldable(self, capsys):
        out = run_example("cluster_moldable", capsys)
        assert "exact L_min (Lemma 8)" in out
        assert "sun2018_shelf" in out

    def test_sp_pipeline(self, capsys):
        out = run_example("sp_pipeline", capsys)
        assert "FPTAS allocator (Theorem 3" in out
        assert "LP allocator (Theorem 1" in out

    def test_lower_bound_demo(self, capsys):
        out = run_example("lower_bound_demo", capsys)
        assert "ADVERSARIAL" in out
        assert "Theorem 6" in out

    def test_every_example_has_a_smoke_test(self):
        """Keep this suite in sync with the examples directory."""
        scripts = {p.stem for p in EXAMPLES.glob("*.py")}
        tested = {
            "quickstart", "cholesky_workflow", "cluster_moldable",
            "sp_pipeline", "lower_bound_demo",
        }
        assert scripts == tested, f"untested examples: {scripts - tested}"
