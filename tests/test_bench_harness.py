"""The benchmark orchestration subsystem: registry, schema, compare, runner.

Covers the ISSUE-4 harness contracts: schema round-trip validation,
determinism of workload construction under a fixed seed, ``--compare``
regression/improvement classification, and registry completeness (every
``benchmarks/bench_*.py`` wrapper maps onto registered specs).
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.bench.compare import compare_documents
from repro.bench.core import (
    BenchCase,
    BenchConfig,
    BenchPlan,
    Checker,
    Gate,
    Table,
    run_plan,
    table_from_cases,
)
from repro.bench.registry import (
    BenchmarkSpec,
    available_benchmarks,
    benchmark_specs,
    get_benchmark,
)
from repro.bench.runner import failed_checks, run_benchmarks, run_spec
from repro.bench.schema import (
    SCHEMA_VERSION,
    SchemaError,
    benchmark_document,
    build_document,
    render_table,
    validate_document,
    write_tables,
)
from repro.bench.workloads import family_instance, rigid_layered

BENCH_DIR = pathlib.Path(__file__).resolve().parents[1] / "benchmarks"

#: every pytest wrapper under benchmarks/ and the registered specs it runs
WRAPPER_SPECS = {
    "bench_engine.py": ["engine"],
    "bench_scaling.py": ["scaling"],
    "bench_table1.py": ["table1"],
    "bench_figure1.py": ["figure1"],
    "bench_figure2_lower_bound.py": ["figure2_lower_bound"],
    "bench_sim_ratio_vs_d.py": ["sim_ratio_vs_d"],
    "bench_sim_independent.py": ["sim_independent"],
    "bench_workflows.py": ["workflow_study"],
    "bench_true_ratio.py": ["true_ratio"],
    "bench_malleable.py": ["malleable"],
    "bench_ablation_mu_rho.py": ["ablation_mu_rho"],
    "bench_ablation_priority.py": ["ablation_priority"],
    "bench_ablation_rounding.py": ["ablation_rounding", "robustness"],
    "bench_extended.py": ["capacity_sweep", "epsilon_sweep", "strategy_sweep"],
    "bench_service.py": ["service"],
    "bench_service_recovery.py": ["service_recovery"],
    "bench_service_sharded.py": ["service_sharded"],
}


def toy_factory(config: BenchConfig) -> BenchPlan:
    """A deterministic two-case benchmark exercising every plan hook."""
    scale = 1 if config.quick else 2

    def checks(by_name):
        c = Checker()
        c.check("values_scale", by_name["alpha"].value == 10 * scale)
        c.check("always_fails_when_seed_negative", config.seed >= 0, "negative seed")
        return c.results

    return BenchPlan(
        cases=[
            BenchCase(
                name="alpha",
                fn=lambda: 10 * scale,
                repeats=3,
                warmup=1,
                metrics=lambda value, seconds: {"value": float(value)},
                rows=lambda value: [{"case": "alpha", "value": value}],
            ),
            BenchCase(
                name="beta",
                fn=lambda: config.seed,
                metrics=lambda value, seconds: {"value": float(value)},
            ),
        ],
        checks=checks,
        derived=lambda by_name: {
            "total": by_name["alpha"].value + by_name["beta"].value
        },
        tables=table_from_cases("toy", "Toy benchmark"),
        gates=[Gate("total", direction="higher", max_regression=0.30)],
    )


TOY = BenchmarkSpec(name="toy", factory=toy_factory, kind="engine", description="toy")


def toy_document(*, quick: bool = True, seed: int = 0) -> dict:
    record = run_spec(TOY, BenchConfig(quick=quick, seed=seed))
    return build_document(
        BenchConfig(quick=quick, seed=seed), [record], environment={"python": "x"}
    )


# ----------------------------------------------------------------------
# registry completeness
# ----------------------------------------------------------------------
def test_every_wrapper_has_registered_specs():
    wrappers = sorted(p.name for p in BENCH_DIR.glob("bench_*.py"))
    assert wrappers == sorted(WRAPPER_SPECS), (
        "benchmarks/bench_*.py and WRAPPER_SPECS disagree — register the new "
        "script's spec and list it here"
    )
    registered = set(available_benchmarks())
    declared = {name for names in WRAPPER_SPECS.values() for name in names}
    assert declared <= registered
    # every wrapper actually runs the spec it declares
    for filename, names in WRAPPER_SPECS.items():
        source = (BENCH_DIR / filename).read_text()
        for name in names:
            assert f'run_registered("{name}"' in source, (filename, name)


def test_registry_metadata_and_lookup():
    assert len(available_benchmarks()) >= 17
    spec = get_benchmark("engine")
    assert spec.kind == "engine"
    assert spec.description
    with pytest.raises(KeyError, match="unknown benchmark"):
        get_benchmark("nope")
    kinds = {s.kind for s in benchmark_specs()}
    assert kinds == {"engine", "paper", "ablation", "extension"}
    assert available_benchmarks(kind="engine") == ["engine", "scaling"]


def test_every_spec_expands_under_quick_config():
    for spec in benchmark_specs():
        if spec.name in ("engine", "scaling"):
            continue  # workload construction at build time is benchmarked elsewhere
        plan = spec.build(BenchConfig(quick=True))
        assert plan.cases, spec.name
        names = [case.name for case in plan.cases]
        assert len(names) == len(set(names)), spec.name
        for gate in plan.gates:
            assert gate.direction in ("higher", "lower"), spec.name


# ----------------------------------------------------------------------
# schema round-trip
# ----------------------------------------------------------------------
def test_document_json_round_trip():
    doc = toy_document()
    again = json.loads(json.dumps(doc))
    validate_document(again)
    assert again == json.loads(json.dumps(again))
    record = again["benchmarks"][0]
    assert record["name"] == "toy"
    assert record["derived"] == {"total": 10.0}
    assert [c["name"] for c in record["cases"]] == ["alpha", "beta"]
    assert record["gates"] == [
        {"metric": "total", "case": None, "direction": "higher", "max_regression": 0.30}
    ]
    # the text artifact renders identically before and after the round trip
    assert render_table(record["tables"][0]) == render_table(
        doc["benchmarks"][0]["tables"][0]
    )


def test_legacy_backend_key_is_accepted_but_never_written():
    doc = toy_document()
    assert set(doc["config"]) == {"quick", "seed"}
    # 4 of the committed documents carry the key with its one surviving value
    legacy = json.loads(json.dumps(doc))
    legacy["config"]["backend"] = "python"
    validate_document(legacy)


def test_benchmark_document_slice_is_valid():
    doc = toy_document()
    piece = benchmark_document(doc, "toy")
    validate_document(piece)
    assert piece["schema"] == SCHEMA_VERSION
    assert [r["name"] for r in piece["benchmarks"]] == ["toy"]
    with pytest.raises(KeyError):
        benchmark_document(doc, "nope")


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(schema="repro-bench/0"), "schema"),
        (lambda d: d["config"].pop("seed"), "seed"),
        # written while the batch loop had a second executor: not comparable
        (lambda d: d["config"].update(backend="numba"), "backend"),
        (lambda d: d["benchmarks"][0].pop("cases"), "cases"),
        (lambda d: d["benchmarks"].append(dict(d["benchmarks"][0])), "duplicate"),
        (
            lambda d: d["benchmarks"][0]["gates"][0].update(metric="ghost"),
            "unknown derived metric",
        ),
        (
            lambda d: d["benchmarks"][0]["gates"][0].update(direction="sideways"),
            "direction",
        ),
        (
            lambda d: d["benchmarks"][0]["cases"].append(
                dict(d["benchmarks"][0]["cases"][0])
            ),
            "duplicate case",
        ),
    ],
)
def test_validate_document_rejects(mutate, message):
    doc = json.loads(json.dumps(toy_document()))
    mutate(doc)
    with pytest.raises(SchemaError, match=message):
        validate_document(doc)


def test_render_table_preamble_footer_and_labels():
    table = Table(
        name="t",
        title="Title",
        rows=[{"a": 1, "b": 2.5}],
        columns=[("a", "A"), ("b", "B label")],
        preamble="before",
        footer="after",
    ).to_record()
    text = render_table(table)
    assert text.startswith("before\n\nTitle\n")
    assert text.endswith("\n\nafter")
    assert "B label" in text


def test_write_tables(tmp_path):
    doc = toy_document()
    written = write_tables(doc, tmp_path)
    assert [p.name for p in written] == ["toy.txt"]
    assert written[0].read_text().startswith("Toy benchmark\n")


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------
def test_rigid_layered_deterministic():
    a_inst, a_alloc = rigid_layered(4, 10, d=3, capacity=12, seed=7)
    b_inst, b_alloc = rigid_layered(4, 10, d=3, capacity=12, seed=7)
    assert a_inst.n == b_inst.n
    assert sorted(map(repr, a_alloc)) == sorted(map(repr, b_alloc))
    assert {repr(j): tuple(v) for j, v in a_alloc.items()} == {
        repr(j): tuple(v) for j, v in b_alloc.items()
    }
    c_inst, _ = rigid_layered(4, 10, d=3, capacity=12, seed=8)
    assert {repr(j): tuple(v) for j, v in a_alloc.items()} != {
        repr(j): tuple(v) for j, v in rigid_layered(4, 10, d=3, capacity=12, seed=8)[1].items()
    } or a_inst.dag.num_edges != c_inst.dag.num_edges


def test_family_instance_deterministic_and_checked():
    a = family_instance("layered", 12, d=2, capacity=8, seed=3)
    b = family_instance("layered", 12, d=2, capacity=8, seed=3)
    assert a.n == b.n == 12
    assert sorted(map(repr, a.jobs)) == sorted(map(repr, b.jobs))
    released = family_instance("layered", 12, d=2, capacity=8, seed=3, arrival_rate=2.0)
    assert any(t > 0 for t in released.release_times().values())
    with pytest.raises(KeyError, match="unknown family"):
        family_instance("nope", 5, d=2, capacity=8)


def test_everything_but_seconds_is_deterministic():
    a = toy_document()["benchmarks"][0]
    b = toy_document()["benchmarks"][0]

    def strip_timing(record):
        record = json.loads(json.dumps(record))
        record.pop("seconds_total")
        for case in record["cases"]:
            case.pop("seconds")
            case.pop("seconds_all")
        return record

    assert strip_timing(a) == strip_timing(b)


# ----------------------------------------------------------------------
# compare classification
# ----------------------------------------------------------------------
def _with_derived(doc: dict, **derived: float) -> dict:
    doc = json.loads(json.dumps(doc))
    doc["benchmarks"][0]["derived"].update(derived)
    return doc


def test_compare_identical_runs_has_zero_spurious_regressions():
    base = toy_document()
    report = compare_documents(toy_document(), base)
    assert report.ok
    assert [d.status for d in report.gated] == ["ok"]
    assert not report.new_benchmarks and not report.missing_benchmarks


def test_compare_classifies_higher_is_better():
    base = toy_document()  # total = 10
    assert [
        d.status for d in compare_documents(_with_derived(base, total=6.0), base).gated
    ] == ["regression"]
    assert [
        d.status for d in compare_documents(_with_derived(base, total=8.0), base).gated
    ] == ["ok"]
    assert [
        d.status for d in compare_documents(_with_derived(base, total=14.0), base).gated
    ] == ["improvement"]
    report = compare_documents(_with_derived(base, total=6.0), base)
    assert not report.ok
    assert "REGRESSION" in report.summary()


def test_compare_classifies_lower_is_better():
    base = toy_document()
    current = _with_derived(base, total=14.0)
    for doc in (base, current):
        doc["benchmarks"][0]["gates"][0]["direction"] = "lower"
    report = compare_documents(current, base)
    assert [d.status for d in report.gated] == ["regression"]
    improved = _with_derived(base, total=6.0)
    improved["benchmarks"][0]["gates"][0]["direction"] = "lower"
    assert [d.status for d in compare_documents(improved, base).gated] == ["improvement"]


def test_compare_gates_come_from_current_document():
    base = toy_document()
    current = json.loads(json.dumps(base))
    current["benchmarks"][0]["gates"] = []
    assert compare_documents(current, base).gated == []


def test_compare_flags_config_mismatch():
    base = toy_document(quick=True)
    current = toy_document(quick=True)
    current["config"]["quick"] = False
    report = compare_documents(current, base)
    assert report.config_mismatch is not None
    assert "WARNING" in report.summary()
    assert compare_documents(toy_document(), base).config_mismatch is None


def test_compare_new_and_missing_benchmarks_never_fail():
    base = toy_document()
    other = run_spec(
        BenchmarkSpec(name="other", factory=toy_factory, kind="engine"),
        BenchConfig(quick=True),
    )
    current = build_document(
        BenchConfig(quick=True, seed=0), [other], environment={"python": "x"}
    )
    report = compare_documents(current, base)
    assert report.ok
    assert report.new_benchmarks == ["other"]
    assert report.missing_benchmarks == ["toy"]


def test_compare_info_deltas_never_gate():
    base = toy_document()
    current = json.loads(json.dumps(base))
    # blow up a non-gated case metric and every wall-clock by 10x
    for case in current["benchmarks"][0]["cases"]:
        case["seconds"] = case["seconds"] * 10 + 1.0
        case["metrics"]["value"] = case["metrics"]["value"] * 10 + 1.0
    report = compare_documents(current, base)
    assert report.ok
    assert {d.status for d in report.info} == {"info"}
    assert any(d.key.endswith(":seconds") for d in report.info)


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
def test_run_spec_records_failed_checks():
    record = run_spec(TOY, BenchConfig(quick=True, seed=-1))
    failed = failed_checks([record])
    assert [(name, check["name"]) for name, check in failed] == [
        ("toy", "always_fails_when_seed_negative")
    ]


def test_run_plan_rejects_duplicate_case_names():
    plan = BenchPlan(
        cases=[BenchCase(name="x", fn=lambda: 1), BenchCase(name="x", fn=lambda: 2)]
    )
    with pytest.raises(ValueError, match="duplicate case name"):
        run_plan(plan)


def test_run_benchmarks_fails_fast_on_unknown_name():
    with pytest.raises(KeyError, match="unknown benchmark"):
        run_benchmarks(["figure1", "nope"], BenchConfig(quick=True))


def test_gate_validation():
    with pytest.raises(ValueError, match="direction"):
        Gate("m", direction="sideways")
    with pytest.raises(ValueError, match="max_regression"):
        Gate("m", max_regression=-1.0)
    assert Gate("m").key == "derived:m"
    assert Gate("m", case="c").key == "case:c:m"


# ----------------------------------------------------------------------
# CLI end to end (cheapest real benchmark only)
# ----------------------------------------------------------------------
def test_cli_bench_end_to_end(tmp_path, capsys):
    from repro.cli import main
    from repro.bench.schema import load_document

    out = tmp_path / "out.json"
    tables = tmp_path / "tables"
    emit = tmp_path / "emit"
    assert (
        main(
            [
                "bench", "--quick", "--only", "figure1",
                "--json", str(out),
                "--tables", str(tables),
                "--emit-dir", str(emit),
            ]
        )
        == 0
    )
    doc = load_document(out)
    assert [r["name"] for r in doc["benchmarks"]] == ["figure1"]
    assert (tables / "figure1.txt").exists()
    piece = load_document(emit / "BENCH_figure1.json")
    assert [r["name"] for r in piece["benchmarks"]] == ["figure1"]
    # second run compared against the first: zero spurious regressions
    out2 = tmp_path / "out2.json"
    assert (
        main(
            [
                "bench", "--quick", "--only", "figure1",
                "--json", str(out2),
                "--compare", str(out),
            ]
        )
        == 0
    )
    assert "0 regression(s)" in capsys.readouterr().out


def test_cli_bench_list_and_errors(tmp_path, capsys):
    from repro.cli import main

    assert main(["bench", "--list"]) == 0
    assert "Registered benchmarks" in capsys.readouterr().out
    assert main(["bench", "--only", "nope"]) == 2
    assert "unknown benchmark" in capsys.readouterr().err
    # a registered name filtered out by --kind is not "unknown"
    assert main(["bench", "--only", "engine", "--kind", "paper"]) == 2
    err = capsys.readouterr().err
    assert "unknown" not in err and "kind" in err


def test_cli_bench_compares_against_a_legacy_backend_baseline(tmp_path, capsys):
    """A committed-style baseline with ``"backend": "python"`` passes the
    config check (no exit 2) and compares without a mismatch warning."""
    from repro.cli import main

    out = tmp_path / "out.json"
    assert main(["bench", "--quick", "--only", "figure1", "--json", str(out)]) == 0
    doc = json.loads(out.read_text())
    doc["config"]["backend"] = "python"
    baseline = tmp_path / "legacy.json"
    baseline.write_text(json.dumps(doc))
    capsys.readouterr()
    assert (
        main(["bench", "--quick", "--only", "figure1", "--compare", str(baseline)])
        == 0
    )
    printed = capsys.readouterr().out
    assert "0 regression(s)" in printed and "WARNING" not in printed


def test_cli_bench_refuses_mismatched_baseline(tmp_path, capsys):
    from repro.cli import main

    baseline = tmp_path / "full-baseline.json"
    doc = toy_document(quick=False)
    baseline.write_text(json.dumps(doc))
    assert (
        main(["bench", "--quick", "--only", "figure1", "--compare", str(baseline)])
        == 2
    )
    assert "config" in capsys.readouterr().err
