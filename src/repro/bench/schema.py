"""The versioned benchmark-result document and its one text renderer.

Every ``repro bench`` run emits a single JSON document::

    {
      "schema": "repro-bench/2",
      "environment": {"python": ..., "numpy": ..., "git_sha": ..., ...},
      "benchmarks": [
        {
          "name": "sim_ratio_vs_d", "description": ...,
          "seconds": 1.14,
          "checks":  [{"name", "ok", "detail"}, ...],
          "derived": {"ours_mean_ratio": 1.62, ...},
          "gates":   [{"metric", "direction", "max_regression"}, ...],
          "table":   {"title", "columns", "rows", "precision",
                      "preamble", "footer"}
        }, ...
      ]
    }

The same document is the source of *every* other artifact: the committed
``benchmarks/results/<name>.txt`` tables are rendered from the benchmarks'
table records (:func:`render_table` / :func:`write_tables`), the
committed ``BENCH_<name>.json`` files are extracted slices
(:func:`benchmark_document`), and :mod:`repro.bench.compare` diffs a run
against them.  Text and JSON can therefore never disagree.

``repro-bench/2`` is the only format read or written: a ``repro-bench/1``
document (per-case rows stored beside a list of tables, a constant
``config`` block) is refused with a :class:`SchemaError` naming both
tags.  Everything in the document except ``environment`` and ``seconds``
is deterministic.
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
    "SCHEMA_VERSION",
    "SchemaError",
    "benchmark_document",
    "build_document",
    "capture_environment",
    "load_document",
    "render_table",
    "validate_document",
    "write_tables",
]

SCHEMA_VERSION = "repro-bench/2"


class SchemaError(ValueError):
    """A document does not conform to the repro-bench schema."""


def capture_environment() -> dict[str, Any]:
    """Software/hardware provenance recorded with every run.

    Best-effort: a missing git checkout records ``git_sha: null`` rather
    than failing the run.
    """
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
    """Raise :class:`SchemaError` unless ``doc`` is a valid repro-bench/2
    document (structure, types, unique names, resolvable gate targets)."""
    _check_mapping(doc, "$", ("schema", "environment", "benchmarks"))
    _require(
        doc["schema"] == SCHEMA_VERSION,
        "$.schema",
        f"expected {SCHEMA_VERSION!r}, got {doc['schema']!r} "
        "(regenerate the document with this version's `repro bench`)",
    )
    _require(isinstance(doc["environment"], Mapping), "$.environment", "expected an object")
    _require(isinstance(doc["benchmarks"], list), "$.benchmarks", "expected a list")

    seen: set[str] = set()
    for i, record in enumerate(doc["benchmarks"]):
        path = f"$.benchmarks[{i}]"
        _check_mapping(
            record,
            path,
            ("name", "description", "seconds", "checks", "derived", "gates", "table"),
        )
        name = record["name"]
        _require(
            isinstance(name, str) and bool(name), f"{path}.name", "expected a non-empty string"
        )
        _require(name not in seen, f"{path}.name", f"duplicate benchmark name {name!r}")
        seen.add(name)
        _require(
            isinstance(record["seconds"], (int, float)), f"{path}.seconds", "expected a number"
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
            _check_mapping(gate, gpath, ("metric", "direction", "max_regression"))
            _require(
                gate["direction"] in ("higher", "lower"),
                f"{gpath}.direction",
                f"expected 'higher' or 'lower', got {gate['direction']!r}",
            )
            _require(
                gate["metric"] in record["derived"],
                gpath,
                f"gate targets unknown derived metric {gate['metric']!r}",
            )

        table = record["table"]
        tpath = f"{path}.table"
        _check_mapping(
            table, tpath, ("title", "columns", "rows", "precision", "preamble", "footer")
        )
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
    """Render one benchmark's table record to the committed text form."""
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


def write_tables(doc: Mapping[str, Any], out_dir: str | Path) -> list[Path]:
    """Render every benchmark's table to ``<out_dir>/<benchmark>.txt``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for record in doc["benchmarks"]:
        path = out / f"{record['name']}.txt"
        path.write_text(render_table(record["table"]) + "\n")
        written.append(path)
    return written
