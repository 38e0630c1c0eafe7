"""The paper-benchmark subsystem: registry, schema, compare, runner.

Covers the harness contracts: schema round-trip validation, determinism
of everything but wall-clock, ``--compare`` regression/improvement
classification against a baseline merged from slices of one recording,
and that the committed ``BENCH_*.json`` slices and
``benchmarks/results/*.txt`` tables are one recording of exactly the
registered benchmarks.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.bench.compare import compare_documents, merge_baseline
from repro.bench.core import Checker, Gate, Table
from repro.bench.registry import (
    BenchmarkSpec,
    available_benchmarks,
    benchmark_specs,
    get_benchmark,
    register_benchmark,
)
from repro.bench.runner import failed_checks, run_benchmarks, run_spec
from repro.bench.schema import (
    SCHEMA_VERSION,
    SchemaError,
    benchmark_document,
    build_document,
    load_document,
    render_table,
    validate_document,
    write_tables,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]


def toy(*, fail: bool = False):
    """A deterministic benchmark returning a table, checks and a derived metric."""
    value = 20
    c = Checker()
    c.check("values", value == 20)
    c.check("fails_on_request", not fail, "asked to fail")
    table = Table("Toy benchmark", [{"case": "alpha", "value": value}])
    return table, c.results, {"total": value}


def toy_spec(name: str = "toy", fn=toy) -> BenchmarkSpec:
    return BenchmarkSpec(
        name=name, fn=fn, description="toy",
        gates=(Gate("total", direction="higher", max_regression=0.30),),
    )


TOY = toy_spec()


def toy_document(*, sha: str | None = "abc123", spec: BenchmarkSpec = TOY) -> dict:
    return build_document(
        [run_spec(spec)], environment={"python": "x", "git_sha": sha}
    )


@pytest.fixture
def fixed_sha(monkeypatch):
    """Documents the CLI writes carry this SHA, wherever the tests run."""
    import repro.bench.schema as schema

    monkeypatch.setattr(schema, "capture_environment", lambda: {"git_sha": "abc123"})


# ----------------------------------------------------------------------
# the committed record
# ----------------------------------------------------------------------
def test_committed_slices_are_one_recording_of_the_registered_benchmarks():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    docs = [load_document(p) for p in paths]
    # one slice per registered benchmark, each named after its file
    assert [p.stem for p in paths] == sorted(
        f"BENCH_{name}" for name in available_benchmarks()
    )
    for path, doc in zip(paths, docs):
        assert [r["name"] for r in doc["benchmarks"]] == [path.stem[len("BENCH_"):]]
    # one recording (one non-null git_sha): the slices merge into one baseline
    baseline = merge_baseline(docs)
    # and the committed text tables are exactly what the slices render
    rendered = {r["name"]: render_table(r["table"]) + "\n" for r in baseline["benchmarks"]}
    committed = {p.stem: p.read_text() for p in (ROOT / "benchmarks" / "results").glob("*.txt")}
    assert rendered == committed


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_registry_metadata_and_lookup():
    assert len(available_benchmarks()) == 15
    assert available_benchmarks()[:4] == [
        "ablation_mu_rho", "ablation_priority", "ablation_rounding", "robustness"
    ]
    spec = get_benchmark("table1")
    assert spec.description and spec.gates == ()
    with pytest.raises(KeyError, match="unknown benchmark"):
        get_benchmark("nope")
    with pytest.raises(ValueError, match="already registered"):
        register_benchmark("table1", description="again")(toy)


def test_every_spec_expands():
    """Each spec's description and decorator-declared gates are what its
    committed slice records, so a gate lives in one place."""
    for spec in benchmark_specs():
        [record] = load_document(ROOT / f"BENCH_{spec.name}.json")["benchmarks"]
        assert record["description"] == spec.description, spec.name
        assert record["gates"] == [gate.to_record() for gate in spec.gates], spec.name
    gated = {s.name for s in benchmark_specs() if s.gates}
    assert gated == {"sim_ratio_vs_d", "sim_independent", "workflow_study"}


# ----------------------------------------------------------------------
# schema round-trip
# ----------------------------------------------------------------------
def test_document_json_round_trip():
    doc = toy_document()
    again = json.loads(json.dumps(doc))
    validate_document(again)
    assert again == json.loads(json.dumps(again))
    assert set(again) == {"schema", "environment", "benchmarks"}
    record = again["benchmarks"][0]
    # one call, one table: every row is stored once
    assert list(record) == [
        "name", "description", "seconds", "checks", "derived", "gates", "table"
    ]
    assert record["name"] == "toy"
    assert record["derived"] == {"total": 20}
    assert record["table"]["rows"] == [{"case": "alpha", "value": 20}]
    assert record["gates"] == [
        {"metric": "total", "direction": "higher", "max_regression": 0.30}
    ]
    # the text artifact renders identically before and after the round trip
    assert render_table(record["table"]) == render_table(doc["benchmarks"][0]["table"])


def test_a_repro_bench_1_document_is_refused(tmp_path):
    """The first format (rows in ``cases[]`` and ``tables[]``, a constant
    ``config`` block) is not read: the error names both tags."""
    legacy = json.loads(json.dumps(toy_document()))
    legacy["schema"] = "repro-bench/1"
    legacy["config"] = {"quick": False, "seed": 0}
    path = tmp_path / "BENCH_toy.json"
    path.write_text(json.dumps(legacy))
    with pytest.raises(SchemaError, match="'repro-bench/2', got 'repro-bench/1'"):
        load_document(path)


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
        (lambda d: d["benchmarks"][0].pop("seconds"), "seconds"),
        (lambda d: d["benchmarks"][0].pop("table"), "table"),
        (lambda d: d["benchmarks"].append(dict(d["benchmarks"][0])), "duplicate"),
        (
            lambda d: d["benchmarks"][0]["gates"][0].update(metric="ghost"),
            "unknown derived metric",
        ),
        (
            lambda d: d["benchmarks"][0]["gates"][0].update(direction="sideways"),
            "direction",
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
def test_everything_but_seconds_is_deterministic():
    a = toy_document()["benchmarks"][0]
    b = toy_document()["benchmarks"][0]

    def strip_timing(record):
        record = json.loads(json.dumps(record))
        record.pop("seconds")
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
    base = toy_document()  # total = 20
    assert [
        d.status for d in compare_documents(_with_derived(base, total=12.0), base).gated
    ] == ["regression"]
    assert [
        d.status for d in compare_documents(_with_derived(base, total=16.0), base).gated
    ] == ["ok"]
    assert [
        d.status for d in compare_documents(_with_derived(base, total=28.0), base).gated
    ] == ["improvement"]
    report = compare_documents(_with_derived(base, total=12.0), base)
    assert not report.ok
    assert "REGRESSION" in report.summary()


def test_compare_classifies_lower_is_better():
    base = toy_document()
    current = _with_derived(base, total=28.0)
    for doc in (base, current):
        doc["benchmarks"][0]["gates"][0]["direction"] = "lower"
    report = compare_documents(current, base)
    assert [d.status for d in report.gated] == ["regression"]
    improved = _with_derived(base, total=12.0)
    improved["benchmarks"][0]["gates"][0]["direction"] = "lower"
    assert [d.status for d in compare_documents(improved, base).gated] == ["improvement"]


def test_compare_gates_come_from_current_document():
    base = toy_document()
    current = json.loads(json.dumps(base))
    current["benchmarks"][0]["gates"] = []
    assert compare_documents(current, base).gated == []


def test_compare_new_and_missing_benchmarks_never_fail():
    base = toy_document()
    current = toy_document(spec=toy_spec("other"))
    report = compare_documents(current, base)
    assert report.ok
    assert report.new_benchmarks == ["other"]
    assert report.missing_benchmarks == ["toy"]


def test_compare_info_deltas_never_gate():
    base = toy_document()
    base["benchmarks"][0]["derived"]["spread"] = 1.0
    current = _with_derived(base, spread=10.0)
    # blow up the wall-clock by 10x: timing is not compared at all
    current["benchmarks"][0]["seconds"] = current["benchmarks"][0]["seconds"] * 10 + 1.0
    report = compare_documents(current, base)
    assert report.ok
    assert [(d.key, d.status) for d in report.info] == [("derived:spread", "info")]
    summary = report.summary()
    assert "derived:spread" in summary and ":seconds" not in summary


def test_merge_baseline_takes_slices_of_one_recording():
    merged = merge_baseline([toy_document(), toy_document(spec=toy_spec("other"))])
    assert [r["name"] for r in merged["benchmarks"]] == ["toy", "other"]
    assert merged["environment"]["git_sha"] == "abc123"
    # two recordings, or one that cannot name its commit, are not a baseline
    with pytest.raises(ValueError, match="git_sha abc123, def456"):
        merge_baseline([toy_document(), toy_document(sha="def456")])
    with pytest.raises(ValueError, match="null"):
        merge_baseline([toy_document(sha=None)])
    with pytest.raises(ValueError):
        merge_baseline([])


# ----------------------------------------------------------------------
# runner
# ----------------------------------------------------------------------
def test_run_spec_records_failed_checks():
    failing = toy_spec(fn=lambda: toy(fail=True))
    assert failed_checks([run_spec(TOY)]) == []
    assert [(name, check["name"]) for name, check in failed_checks([run_spec(failing)])] == [
        ("toy", "fails_on_request")
    ]


def test_run_benchmarks_runs_serially_in_the_given_order():
    seen = []
    records = run_benchmarks(
        ["figure1", "ablation_priority"],
        progress=lambda i, total, name: seen.append((i, total, name)),
    )
    assert [r["name"] for r in records] == ["figure1", "ablation_priority"]
    assert seen == [(0, 2, "figure1"), (1, 2, "ablation_priority")]
    assert failed_checks(records) == []


def test_run_benchmarks_fails_fast_on_unknown_name():
    with pytest.raises(KeyError, match="unknown benchmark"):
        run_benchmarks(["figure1", "nope"])


def test_gate_validation():
    with pytest.raises(ValueError, match="direction"):
        Gate("m", direction="sideways")
    with pytest.raises(ValueError, match="max_regression"):
        Gate("m", max_regression=-1.0)
    assert Gate("m").to_record() == {
        "metric": "m", "direction": "higher", "max_regression": 0.30
    }


# ----------------------------------------------------------------------
# CLI end to end (cheapest real benchmark only)
# ----------------------------------------------------------------------
def test_cli_bench_end_to_end(tmp_path, capsys, fixed_sha):
    from repro.cli import main

    out = tmp_path / "out.json"
    tables = tmp_path / "tables"
    emit = tmp_path / "emit"
    assert (
        main(
            [
                "bench", "--only", "figure1",
                "--json", str(out),
                "--tables", str(tables),
                "--emit-dir", str(emit),
            ]
        )
        == 0
    )
    doc = load_document(out)
    assert [r["name"] for r in doc["benchmarks"]] == ["figure1"]
    assert (tables / "figure1.txt").read_text() == (
        ROOT / "benchmarks" / "results" / "figure1.txt"
    ).read_text()
    piece = load_document(emit / "BENCH_figure1.json")
    assert [r["name"] for r in piece["benchmarks"]] == ["figure1"]
    # second run compared against the first: zero spurious regressions
    assert main(["bench", "--only", "figure1", "--compare", str(out)]) == 0
    assert "0 regression(s)" in capsys.readouterr().out


def test_cli_bench_compares_against_the_committed_slices(capsys, fixed_sha):
    """The committed slices are the baseline: a run of the gated paper
    benchmark compares against the merged ``BENCH_*.json`` set."""
    from repro.cli import main

    slices = [str(p) for p in sorted(ROOT.glob("BENCH_*.json"))]
    assert main(["bench", "--only", "workflow_study", "--compare", *slices]) == 0
    printed = capsys.readouterr().out
    assert "compare: 1 gated metric(s), 0 regression(s)" in printed
    assert "bench: OK" in printed


def test_cli_bench_list_and_errors(tmp_path, capsys):
    from repro.cli import main

    assert main(["bench", "--list"]) == 0
    listing = capsys.readouterr().out
    assert "Registered benchmarks" in listing
    assert listing.splitlines()[1].split() == ["name", "|", "description"]
    assert main(["bench", "--only", "nope"]) == 2
    assert "unknown benchmark" in capsys.readouterr().err
    # no --kind filter is left to select a subset
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--kind", "paper"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --kind" in capsys.readouterr().err


def test_cli_bench_refuses_a_repro_bench_1_baseline(tmp_path, capsys):
    """A ``repro-bench/1`` slice given to ``--compare`` exits 2 with the
    schema message before anything runs."""
    from repro.cli import main

    legacy = json.loads(json.dumps(toy_document()))
    legacy["schema"] = "repro-bench/1"
    baseline = tmp_path / "legacy.json"
    baseline.write_text(json.dumps(legacy))
    assert main(["bench", "--only", "figure1", "--compare", str(baseline)]) == 2
    captured = capsys.readouterr()
    assert "expected 'repro-bench/2', got 'repro-bench/1'" in captured.err
    assert "bench: running" not in captured.out


def test_cli_bench_refuses_mismatched_baseline(tmp_path, capsys):
    """Slices of two recordings, or of one with no SHA, are refused before
    anything runs."""
    from repro.cli import main

    paths = []
    for sha in ("abc123", "def456", None):
        path = tmp_path / f"{sha}.json"
        path.write_text(json.dumps(toy_document(sha=sha)))
        paths.append(str(path))
    for mixed in (paths[:2], paths[2:]):
        assert main(["bench", "--only", "figure1", "--compare", *mixed]) == 2
        captured = capsys.readouterr()
        assert "git_sha" in captured.err and "bench: running" not in captured.out
