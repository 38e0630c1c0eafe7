#!/usr/bin/env python
"""CI service smoke: drive `repro serve` end to end through the typed client.

One stage per run (``--stage``), each against real ``repro serve``
processes on localhost:

``single``
    One session on stdio with an aggressive compaction policy: submit
    across two tenants, cancel, advance, checkpoint, restore, drain.
    Every response is ok, compaction archived rows mid-session, the final
    schedule strict-validates, both wire versions are answered in kind (a
    bare v1 request gets a bare response; a v2 envelope gets its rid
    echoed) and shutdown is clean.  Mid-run it scrapes ``GET /metrics``
    off the ``--metrics-port`` listener and cross-checks the ``metrics``
    op: the ``repro_requests_total`` counters must equal the client-side
    tally of every op sent, and the span ring must have traced the run.
    The session trace (v3, with the cancellation) and a span dump are
    left in ``--results-dir`` for upload.

``chaos``
    ``repro serve --supervise`` with a durable journal on a TCP port.  A
    deterministic job set is streamed one submit at a time, the worker is
    SIGKILLed partway through, and the stream continues through the
    restart window (the client reconnects and resends).  Every admitted
    job completes exactly once, the final schedule is *event for event*
    identical to an uninterrupted in-process reference and
    strict-validates, the supervisor restarted the worker (new pid,
    restart counter), and a clean ``shutdown`` ends the supervisor with 0.

A duplicate-id error counts as an ack in the chaos stage: the
worker journaled the job before dying — at-least-once submission,
exactly-once admission.  Exits non-zero on any violation.  Needs only
the stdlib plus ``repro`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
import urllib.request

from repro.service import Backpressure, ServiceClient
from repro.service.client import pick_free_port
from repro.service.supervisor import reap

CAPACITIES = (4, 4)
SEED = 0


def job_stream(n: int, every: int, back: int) -> list[dict]:
    """A deterministic job set: mixed demands against (4, 4); every
    ``every``-th job depends on the job ``back`` places before it."""
    jobs = []
    for i in range(n):
        rec = {
            "id": f"j{i:03d}",
            "demand": [1 + i % 3, 1 + (i * 2) % 4],
            "duration": 1.0 + (i % 5) * 0.5,
        }
        if i % every == every - 1 and i >= back:
            rec["preds"] = [f"j{i - back:03d}"]
        jobs.append(rec)
    return jobs


def samples(text: str, family: str, label: str) -> dict[str, int]:
    """``family{...label="x"...} N`` sample lines of an exposition, by x."""
    out = {}
    for line in text.splitlines():
        if line.startswith(family + "{"):
            labels, value = line.rsplit(" ", 1)
            out[labels.split(f'{label}="', 1)[1].split('"', 1)[0]] = int(float(value))
    return out


def scrape(port: int) -> tuple[str, str]:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics", timeout=10) as http:
        return http.headers.get("Content-Type", ""), http.read().decode()


def stream_with_a_kill(client, jobs, kill_at, supervisor_pid, patience) -> int:
    """Submit ``jobs`` one request each, each until acked; after
    ``kill_at`` acks SIGKILL the worker that answers ``status`` (never
    the supervisor) and keep going.  Returns the killed pid."""
    killed = None
    for i, rec in enumerate(jobs):
        give_up = time.monotonic() + patience
        while True:
            try:
                resp = client.submit([rec])
                break
            except Backpressure:
                if time.monotonic() >= give_up:
                    raise
                time.sleep(0.05)
        if rec["id"] not in resp.get("admitted", ()) and not any(
            err.get("id") == rec["id"] and "already submitted" in str(err.get("detail"))
            for err in resp.get("errors", ())
        ):
            raise SystemExit(f"chaos smoke: FAIL — submit of {rec['id']} not acked: {resp}")
        if i + 1 == kill_at:
            killed = client.status()["pid"]
            assert killed != supervisor_pid, "status pid is the supervisor?"
            print(f"chaos smoke: SIGKILL worker pid {killed} after "
                  f"{i + 1}/{len(jobs)} submits", flush=True)
            os.kill(killed, signal.SIGKILL)
    assert killed is not None, "stream shorter than --kill-at"
    return killed


# ----------------------------------------------------------------------
def stage_single(args) -> tuple[list[str], str]:
    os.makedirs(args.results_dir, exist_ok=True)
    checkpoint = os.path.join(args.results_dir, "checkpoint.json")
    trace = os.path.join(args.results_dir, "session-trace.json")
    span_dump = os.path.join(args.results_dir, "spans.jsonl")
    metrics_port = pick_free_port()

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
    scrape_ctype, scraped = scrape(metrics_port)
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
    for origin, text in (("scrape", scraped), ("metrics op", metrics["text"])):
        tally = samples(text, "repro_requests_total", "op")
        if tally != dict(sent):
            failures.append(f"{origin} request counters {tally} != sent {dict(sent)}")
    if "repro_request_latency_seconds_bucket" not in scraped:
        failures.append("no latency histogram in scrape")
    if 'repro_admission_outcomes_total{outcome="admitted"}' not in scraped:
        failures.append("no admission outcomes in scrape")
    if not spans["spans"] or n_spans < 1:
        failures.append(f"span ring empty: {spans.get('count')} / dumped {n_spans}")

    with open(trace) as fh:
        tr = json.load(fh)
    if tr["version"] != 3 or len(tr["jobs"]) != 4:
        failures.append(f"trace: version {tr['version']}, {len(tr['jobs'])} jobs")
    if [c["id"] for c in tr["cancelled"]] != ["'doomed'"]:
        failures.append(f"trace cancelled: {tr['cancelled']}")
    return failures, (f"{drain}; metrics scrape {len(scraped)}B on "
                      f":{metrics_port}, {n_spans} spans dumped")


def stage_chaos(args) -> tuple[list[str], str]:
    from repro.conformance.fuzz import portable_events
    from repro.service.checkpoint import restore_session
    from repro.service.session import JobSpec, SchedulingSession

    port = pick_free_port()
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--supervise", "--backoff-base", "0.2", "--backoff-cap", "1",
        "--max-restarts", "8",
        "--tcp", str(port),
        "--capacities", *map(str, CAPACITIES),
        "--seed", str(SEED),
        "--journal", os.path.join(args.workdir, "journal.jsonl"),
        "--checkpoint-every", "8",
        "--batch-size", "1", "--max-pending", "128",
    ]
    print(f"chaos smoke: starting supervisor: {' '.join(cmd)}", flush=True)
    proc = subprocess.Popen(cmd)
    try:
        jobs = job_stream(args.jobs, every=4, back=1)
        # retry_deadline makes every call survive the crash window:
        # disconnect -> reconnect -> resend, server-side dedup by id
        client = ServiceClient.connect(
            "127.0.0.1", port,
            connect_deadline=args.timeout, io_timeout=5.0,
            retry_deadline=args.timeout,
        )
        killed_pid = stream_with_a_kill(
            client, jobs, args.kill_at, proc.pid, args.timeout
        )
        drain = client.drain()
        validate = client.validate()
        status = client.status()
        snapshot = client.checkpoint()["snapshot"]
        shutdown = client.shutdown()
        client.close()

        failures = []
        if drain.get("completed") != args.jobs:
            failures.append(
                f"drain completed {drain.get('completed')} of {args.jobs} jobs"
            )
        if not validate.get("valid"):
            failures.append(f"strict validation failed: {validate.get('violations')}")
        if status["pid"] == killed_pid:
            failures.append("worker pid unchanged after SIGKILL")
        if status.get("restarts", 0) < 1:
            failures.append(f"supervisor reports restarts={status.get('restarts')}")
        if status.get("journal", {}).get("applied_seq", 0) < 1:
            failures.append(f"journal status missing/empty: {status.get('journal')}")
        if not shutdown.get("ok"):
            failures.append(f"shutdown refused: {shutdown}")

        # the recovered schedule must match the uninterrupted reference —
        # the same stream, in the same order, through an in-process
        # session — event for event: no admitted job lost, none duplicated
        reference = SchedulingSession(CAPACITIES, seed=SEED)
        for rec in jobs:
            reference.submit([JobSpec.from_dict(rec)])
        reference.drain()
        want = portable_events(reference.to_schedule(), reprify=False)
        got = portable_events(restore_session(snapshot).to_schedule(), reprify=False)
        if got != want:
            failures.append(
                "recovered schedule diverges from the uninterrupted reference "
                f"({len(got)} vs {len(want)} events)"
            )

        code = proc.wait(timeout=30)
        if code != 0:
            failures.append(f"supervisor exited {code} after clean shutdown")
        return failures, (
            f"{args.jobs} jobs, worker {killed_pid} SIGKILLed after {args.kill_at} "
            f"submits, restarts={status.get('restarts')}, "
            f"replayed={status.get('journal', {}).get('replayed')}, "
            f"makespan={drain.get('makespan'):.3f}, schedule identical to the "
            "uninterrupted reference"
        )
    finally:
        reap(proc, patience=0, grace=10)


STAGES = {"single": stage_single, "chaos": stage_chaos}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stage", required=True, choices=tuple(STAGES))
    parser.add_argument("--results-dir", default="service-results",
                        help="single: where the trace and span dump are left")
    parser.add_argument("--jobs", type=int, default=60,
                        help="chaos: length of the job stream")
    parser.add_argument("--kill-at", type=int, default=None,
                        help="chaos: SIGKILL the worker after this many "
                        "acked submits (default: a third of the stream)")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="chaos: how long one call may ride out the "
                        "restart window, in seconds")
    parser.add_argument("--workdir", default=None,
                        help="chaos: journal/snapshot directory "
                        "(default: a tempdir)")
    args = parser.parse_args()
    if args.kill_at is None:
        args.kill_at = max(1, args.jobs // 3)
    if args.stage != "single":
        args.workdir = args.workdir or tempfile.mkdtemp(prefix=f"{args.stage}-smoke-")
        os.makedirs(args.workdir, exist_ok=True)

    failures, summary = STAGES[args.stage](args)
    for failure in failures:
        print(f"{args.stage} smoke: FAIL — {failure}", flush=True)
    if not failures:
        print(f"{args.stage} smoke: OK — {summary}", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
