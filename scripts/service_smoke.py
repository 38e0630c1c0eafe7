#!/usr/bin/env python
"""CI service smoke: drive `repro serve` end-to-end over stdio.

Launches a single-session ``repro serve`` on its stdin/stdout with an
aggressive compaction policy and drives it through the typed
:class:`repro.service.ServiceClient`: submit across two tenants, cancel,
advance, checkpoint, restore, drain.  Asserts every response is ok,
compaction actually archived rows mid-session, the final schedule
strict-validates, both wire versions are answered in kind (a bare v1
request gets a bare response; a v2 envelope gets its rid echoed) and
shutdown is clean.  Mid-run it scrapes ``GET /metrics`` off the
``--metrics-port`` listener and cross-checks the ``metrics`` op: the
``repro_requests_total`` counters must equal the client-side tally of
every op sent, and the span ring must have traced the run.  The session
trace (v3, with the cancellation) and a span dump are left in
``--results-dir`` for upload.

Exits non-zero on any violation.  Needs only the stdlib plus ``repro``
on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import socket
import sys
import urllib.request

from repro.service import ServiceClient


def free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def counter_tally(text: str, family: str) -> dict[str, int]:
    """Parse ``family{op="x"} N`` sample lines out of an exposition."""
    tally = {}
    for line in text.splitlines():
        if line.startswith(family + "{"):
            labels, value = line.rsplit(" ", 1)
            op = labels.split('op="', 1)[1].split('"', 1)[0]
            tally[op] = int(float(value))
    return tally


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results-dir", default="service-results")
    args = parser.parse_args()
    os.makedirs(args.results_dir, exist_ok=True)
    checkpoint = os.path.join(args.results_dir, "checkpoint.json")
    trace = os.path.join(args.results_dir, "session-trace.json")
    span_dump = os.path.join(args.results_dir, "spans.jsonl")
    metrics_port = free_port()

    client = ServiceClient.launch([
        sys.executable, "-m", "repro", "serve",
        "--capacities", "16", "8",
        "--compact-threshold", "0.3", "--compact-min-rows", "2",
        "--trace", trace,
        "--metrics-port", str(metrics_port),
    ])
    responses = []
    record = lambda resp: (responses.append(resp), resp)[1]  # noqa: E731

    record(client.tenant("batchy", 2.0))
    record(client.submit([
        {"id": "prep", "demand": [4, 2], "duration": 2.0, "tenant": "batchy"},
        {"id": "train", "demand": [8, 4], "duration": 6.0, "preds": ["prep"],
         "tenant": "batchy"},
    ]))
    record(client.submit([
        {"id": "adhoc1", "demand": [2, 1], "duration": 1.0, "tenant": "lab"},
        {"id": "adhoc2", "demand": [2, 1], "duration": 1.0, "preds": ["adhoc1"],
         "tenant": "lab"},
        {"id": "doomed", "demand": [1, 1], "duration": 9.0, "release": 4.0,
         "tenant": "lab"},
    ]))
    record(client.flush())
    record(client.advance(2.5))
    cancel = record(client.cancel("doomed"))
    record(client.checkpoint(checkpoint))
    record(client.restore(path=checkpoint))
    drain = record(client.drain())
    validate = record(client.validate())
    status = record(client.status())
    stats = record(client.stats())

    # wire-version smoke: a bare v1 request is answered bare, a v2
    # envelope is answered with its rid echoed
    t = client.transport
    t.send_line(json.dumps({"op": "status"}))
    v1 = json.loads(t.recv_line())
    assert v1["ok"] and "v" not in v1 and "rid" not in v1, v1
    t.send_line(json.dumps({"v": 2, "rid": 999, "op": "status"}))
    v2 = json.loads(t.recv_line())
    assert v2["ok"] and v2["v"] == 2 and v2["rid"] == 999, v2

    # observability stage: every op sent so far, by the client's own count
    sent = collections.Counter({
        "tenant": 1, "submit": 2, "flush": 1, "advance": 1, "cancel": 1,
        "checkpoint": 1, "restore": 1, "drain": 1, "validate": 1,
        "status": 3, "stats": 1,
    })
    with urllib.request.urlopen(
        f"http://127.0.0.1:{metrics_port}/metrics", timeout=10
    ) as http:
        scrape_ctype = http.headers.get("Content-Type", "")
        scrape = http.read().decode()
    metrics = record(client.metrics())
    spans = record(client.spans())
    n_spans = client.dump_spans(span_dump)

    record(client.shutdown())
    client.close()

    failures = []
    if len(responses) != 15:
        failures.append(f"expected 15 responses, got {len(responses)}")
    bad = [r for r in responses if not r.get("ok")]
    if bad:
        failures.append(f"failed responses: {bad}")
    if not validate["valid"]:
        failures.append(f"strict validation failed: {validate}")
    if drain["completed"] != 4:
        failures.append(f"drain completed {drain['completed']} != 4")
    if cancel["cancelled"] != ["doomed"]:
        failures.append(f"cancel: {cancel}")
    if status["compactions"] < 1 or status["archived"] < 1:
        failures.append(f"no compaction happened: {status}")
    if stats["queues"] != {"batchy": 0, "lab": 0}:
        failures.append(f"stats queues: {stats}")
    if client.transport.proc.returncode != 0:
        failures.append(f"serve exited {client.transport.proc.returncode}")

    # the HTTP scrape and the wire op must both agree with the client's
    # own tally of every request it sent (neither read counts itself:
    # the scrape bypasses the protocol, and the counter for an op is
    # bumped only after its response is built)
    if not scrape_ctype.startswith("text/plain; version=0.0.4"):
        failures.append(f"scrape content-type: {scrape_ctype!r}")
    for origin, text in (("scrape", scrape), ("metrics op", metrics["text"])):
        tally = counter_tally(text, "repro_requests_total")
        if tally != dict(sent):
            failures.append(f"{origin} request counters {tally} != sent {dict(sent)}")
    if "repro_request_latency_seconds_bucket" not in scrape:
        failures.append("no latency histogram in scrape")
    if 'repro_admission_outcomes_total{outcome="admitted"}' not in scrape:
        failures.append("no admission outcomes in scrape")
    if not spans["spans"] or n_spans < 1:
        failures.append(f"span ring empty: {spans.get('count')} / dumped {n_spans}")

    with open(trace) as fh:
        tr = json.load(fh)
    if tr["version"] != 3 or len(tr["jobs"]) != 4:
        failures.append(f"trace: version {tr['version']}, {len(tr['jobs'])} jobs")
    if [c["id"] for c in tr["cancelled"]] != ["'doomed'"]:
        failures.append(f"trace cancelled: {tr['cancelled']}")

    if failures:
        for f in failures:
            print(f"service smoke: FAIL — {f}", flush=True)
        return 1
    print(f"service smoke: OK — {drain}; metrics scrape "
          f"{len(scrape)}B on :{metrics_port}, {n_spans} spans dumped",
          flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
