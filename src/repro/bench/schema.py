"""The versioned benchmark-result document and its one text renderer.

Every ``repro bench`` run emits a single JSON document::

    {
      "schema": "repro-bench/1",
      "config": {"quick": false, "seed": 0},
      "environment": {"python": ..., "numpy": ..., "git_sha": ..., ...},
      "benchmarks": [
        {
          "name": "sim_ratio_vs_d", "kind": "paper", "description": ...,
          "seconds_total": 1.14,
          "cases":   [{"name", "seconds", "seconds_all", "repeats",
                       "warmup", "metrics", "rows"}, ...],
          "checks":  [{"name", "ok", "detail"}, ...],
          "derived": {"ours_mean_ratio": 1.62, ...},
          "gates":   [{"metric", "case", "direction", "max_regression"}, ...],
          "tables":  [{"name", "title", "columns", "rows", "precision",
                       "preamble", "footer"}, ...]
        }, ...
      ]
    }

The same document is the source of *every* other artifact: the committed
``benchmarks/results/*.txt`` tables are rendered from the embedded table
records (:func:`render_table` / :func:`write_tables`), the committed
``BENCH_<name>.json`` files are extracted slices
(:func:`benchmark_document`), and :mod:`repro.bench.compare` diffs a run
against them.  Text and JSON can therefore never disagree.

``config`` is written as the constant :data:`CONFIG`: the benchmarks take
no knobs, and the block stays so every ``repro-bench/1`` document keeps
one shape.  Everything in the document except ``environment`` and the
``seconds*`` fields is deterministic.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Any, Iterable, Mapping

from repro.experiments.report import format_table

__all__ = [
    "CONFIG",
    "SCHEMA_VERSION",
    "SchemaError",
    "benchmark_document",
    "build_document",
    "capture_environment",
    "iter_tables",
    "load_document",
    "render_table",
    "validate_document",
    "write_tables",
]

SCHEMA_VERSION = "repro-bench/1"
#: the ``config`` block every document carries (see the module docstring)
CONFIG = {"quick": False, "seed": 0}


class SchemaError(ValueError):
    """A document does not conform to the repro-bench schema."""


def capture_environment() -> dict[str, Any]:
    """Software/hardware provenance recorded with every run.

    Best-effort: a missing git checkout records ``git_sha: null`` rather
    than failing the run.
    """
    import networkx
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=os.getcwd(),
            check=True,
        ).stdout.strip()
    except Exception:
        sha = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "git_sha": sha,
    }


def build_document(
    benchmarks: list[dict[str, Any]],
    *,
    environment: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble (and validate) the top-level document."""
    doc = {
        "schema": SCHEMA_VERSION,
        "config": dict(CONFIG),
        "environment": dict(environment if environment is not None else capture_environment()),
        "benchmarks": benchmarks,
    }
    validate_document(doc)
    return doc


def benchmark_document(doc: Mapping[str, Any], name: str) -> dict[str, Any]:
    """The ``BENCH_<name>.json`` slice: one benchmark plus its provenance."""
    for record in doc["benchmarks"]:
        if record["name"] == name:
            return {
                "schema": doc["schema"],
                "config": dict(doc["config"]),
                "environment": dict(doc["environment"]),
                "benchmarks": [record],
            }
    raise KeyError(f"document has no benchmark {name!r}")


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def _require(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise SchemaError(f"{path}: {msg}")


def _check_mapping(obj: Any, path: str, keys: Iterable[str]) -> None:
    _require(isinstance(obj, Mapping), path, f"expected an object, got {type(obj).__name__}")
    for key in keys:
        _require(key in obj, path, f"missing required key {key!r}")


def validate_document(doc: Any) -> None:
    """Raise :class:`SchemaError` unless ``doc`` is a valid repro-bench/1
    document (structure, types, unique names, resolvable gate targets)."""
    _check_mapping(doc, "$", ("schema", "config", "environment", "benchmarks"))
    _require(
        doc["schema"] == SCHEMA_VERSION,
        "$.schema",
        f"expected {SCHEMA_VERSION!r}, got {doc['schema']!r}",
    )
    _check_mapping(doc["config"], "$.config", ("quick", "seed"))
    _require(isinstance(doc["environment"], Mapping), "$.environment", "expected an object")
    _require(isinstance(doc["benchmarks"], list), "$.benchmarks", "expected a list")

    seen: set[str] = set()
    table_names: set[str] = set()
    for i, record in enumerate(doc["benchmarks"]):
        path = f"$.benchmarks[{i}]"
        _check_mapping(
            record,
            path,
            ("name", "kind", "description", "seconds_total", "cases", "checks", "derived",
             "gates", "tables"),
        )
        name = record["name"]
        _require(
            isinstance(name, str) and bool(name), f"{path}.name", "expected a non-empty string"
        )
        _require(name not in seen, f"{path}.name", f"duplicate benchmark name {name!r}")
        seen.add(name)
        _require(
            isinstance(record["seconds_total"], (int, float)),
            f"{path}.seconds_total",
            "expected a number",
        )

        case_names: set[str] = set()
        for j, case in enumerate(record["cases"]):
            cpath = f"{path}.cases[{j}]"
            _check_mapping(
                case, cpath,
                ("name", "seconds", "seconds_all", "repeats", "warmup", "metrics", "rows"),
            )
            _require(case["name"] not in case_names, cpath, f"duplicate case {case['name']!r}")
            case_names.add(case["name"])
            _require(
                isinstance(case["seconds"], (int, float)),
                f"{cpath}.seconds",
                "expected a number",
            )
            _require(
                isinstance(case["seconds_all"], list),
                f"{cpath}.seconds_all",
                "expected a list",
            )
            _require(
                isinstance(case["metrics"], Mapping),
                f"{cpath}.metrics",
                "expected an object",
            )
            for k, v in case["metrics"].items():
                _require(
                    isinstance(v, (int, float)),
                    f"{cpath}.metrics[{k!r}]",
                    "expected a number",
                )
            _require(
                case["rows"] is None or isinstance(case["rows"], list),
                f"{cpath}.rows",
                "expected a list or null",
            )

        for j, check in enumerate(record["checks"]):
            _check_mapping(check, f"{path}.checks[{j}]", ("name", "ok", "detail"))
            _require(
                isinstance(check["ok"], bool), f"{path}.checks[{j}].ok", "expected a bool"
            )

        _require(isinstance(record["derived"], Mapping), f"{path}.derived", "expected an object")
        for k, v in record["derived"].items():
            _require(
                isinstance(v, (int, float)), f"{path}.derived[{k!r}]", "expected a number"
            )

        for j, gate in enumerate(record["gates"]):
            gpath = f"{path}.gates[{j}]"
            _check_mapping(gate, gpath, ("metric", "case", "direction", "max_regression"))
            _require(
                gate["direction"] in ("higher", "lower"),
                f"{gpath}.direction",
                f"expected 'higher' or 'lower', got {gate['direction']!r}",
            )
            # every gate ever written targets a derived metric
            _require(gate["case"] is None, f"{gpath}.case", "expected null")
            _require(
                gate["metric"] in record["derived"],
                gpath,
                f"gate targets unknown derived metric {gate['metric']!r}",
            )

        for j, table in enumerate(record["tables"]):
            tpath = f"{path}.tables[{j}]"
            _check_mapping(
                table, tpath,
                ("name", "title", "columns", "rows", "precision", "preamble", "footer"),
            )
            _require(
                table["name"] not in table_names,
                tpath,
                f"duplicate table name {table['name']!r} across benchmarks",
            )
            table_names.add(table["name"])
            _require(isinstance(table["rows"], list), f"{tpath}.rows", "expected a list")
            for col in table["columns"]:
                _require(
                    isinstance(col, (list, tuple)) and len(col) == 2,
                    f"{tpath}.columns",
                    "expected [key, label] pairs",
                )


def load_document(path: str | Path) -> dict[str, Any]:
    """Read and validate a document from disk."""
    with open(path) as fh:
        doc = json.load(fh)
    validate_document(doc)
    return doc


# ----------------------------------------------------------------------
# text rendering — the only table formatter in the repo
# ----------------------------------------------------------------------
def render_table(table: Mapping[str, Any]) -> str:
    """Render one embedded table record to the committed text form."""
    keys = [k for k, _ in table["columns"]]
    labels = [label for _, label in table["columns"]]
    body = format_table(
        labels,
        [[row.get(k) for k in keys] for row in table["rows"]],
        precision=table["precision"],
        title=table["title"],
    )
    parts = []
    if table["preamble"]:
        parts.append(table["preamble"])
    parts.append(body)
    if table["footer"]:
        parts.append(table["footer"])
    return "\n\n".join(parts)


def iter_tables(doc: Mapping[str, Any]) -> Iterable[Mapping[str, Any]]:
    """Every embedded table record in benchmark order."""
    for record in doc["benchmarks"]:
        yield from record["tables"]


def write_tables(doc: Mapping[str, Any], out_dir: str | Path) -> list[Path]:
    """Render every embedded table to ``<out_dir>/<table>.txt``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for table in iter_tables(doc):
        path = out / f"{table['name']}.txt"
        path.write_text(render_table(table) + "\n")
        written.append(path)
    return written
